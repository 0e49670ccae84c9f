//! The RK-4 tableau of the paper's Algorithm 1.
//!
//! Classical fourth-order Runge–Kutta in the MPAS formulation: provisional
//! states at `dt/2, dt/2, dt` and quadrature weights `1/6, 1/3, 1/3, 1/6`.
//! [`crate::model::ShallowWaterModel::step_with`] is the one stage loop
//! that applies them, with the kernel call sequence as Algorithm 1 lists it
//! (including the branch at the fourth substep where the accumulation
//! precedes the diagnostics and the velocity reconstruction runs).

/// RK substep coefficients: provisional-state factors (×dt).
pub const RK_SUBSTEP: [f64; 3] = [0.5, 0.5, 1.0];
/// RK quadrature weights (×dt).
pub const RK_WEIGHTS: [f64; 4] = [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0];

#[cfg(test)]
mod tests {
    use super::*;

    /// RK4 on the scalar ODE y' = λy must reproduce the degree-4 Taylor
    /// polynomial of exp(λ dt) exactly — we verify the driver's coefficient
    /// wiring by running the full PDE machinery on a 1-cell-free problem is
    /// impossible, so check the coefficients directly instead.
    #[test]
    fn coefficients_are_classical_rk4() {
        assert_eq!(RK_SUBSTEP, [0.5, 0.5, 1.0]);
        let s: f64 = RK_WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
        assert_eq!(RK_WEIGHTS[1], RK_WEIGHTS[2]);
        assert_eq!(RK_WEIGHTS[0], RK_WEIGHTS[3]);
        assert!((RK_WEIGHTS[0] - 1.0 / 6.0).abs() < 1e-15);
    }

    /// Scalar convergence check of the same Butcher tableau: integrate
    /// y' = λ y with the (substep, weight) wiring the model's step uses and
    /// confirm 4th-order accuracy.
    #[test]
    fn tableau_is_fourth_order_on_scalar_ode() {
        let lambda = -0.7;
        let integrate = |dt: f64, n: usize| -> f64 {
            let mut y = 1.0f64;
            for _ in 0..n {
                let mut acc = y;
                let mut provis = y;
                for stage in 0..4 {
                    let tend = lambda * provis;
                    if stage < 3 {
                        provis = y + RK_SUBSTEP[stage] * dt * tend;
                    }
                    acc += RK_WEIGHTS[stage] * dt * tend;
                }
                y = acc;
            }
            y
        };
        let exact = (lambda * 1.0f64).exp();
        let e1 = (integrate(0.1, 10) - exact).abs();
        let e2 = (integrate(0.05, 20) - exact).abs();
        let order = (e1 / e2).log2();
        assert!(order > 3.8, "observed order {order}");
    }
}
