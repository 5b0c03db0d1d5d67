//! Fermi–Dirac occupation and finite-temperature purification.
//!
//! At zero temperature the density matrix uses the Heaviside/sign function;
//! at finite temperature the signum of Eq. 17 is replaced by the Fermi
//! function (paper Secs. III-B and IV-F). The `sign(0) = 0` extension of
//! Eq. 12 is exactly the `T → 0⁺` limit of the Fermi function at `ε = µ`
//! (Eq. 13), which these helpers reproduce.

/// Fermi–Dirac occupation `f(ε) = 1 / (exp((ε − µ)/kT) + 1)`.
///
/// `kt` is the thermal energy `k_B·T` in the same units as `eps` and `mu`.
/// `kt == 0` gives the zero-temperature step with `f(µ) = 1/2` (Eq. 13).
pub fn fermi_occupation(eps: f64, mu: f64, kt: f64) -> f64 {
    if kt <= 0.0 {
        return if eps < mu {
            1.0
        } else if eps > mu {
            0.0
        } else {
            0.5
        };
    }
    let x = (eps - mu) / kt;
    // Numerically stable in both tails.
    if x >= 0.0 {
        let e = (-x).exp();
        e / (1.0 + e)
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// Finite-temperature analogue of the sign function:
/// `sign_T(ε − µ) = 1 − 2 f(ε) = tanh((ε − µ) / (2kT))`.
///
/// Plugging this into Eq. 16 in place of `signum` yields the
/// finite-temperature density matrix; `kt → 0` recovers the extended sign
/// of Eqs. 9 and 12.
pub fn smeared_sign(eps: f64, mu: f64, kt: f64) -> f64 {
    1.0 - 2.0 * fermi_occupation(eps, mu, kt)
}

/// Occupation-weighted electron count `Σ_i f(ε_i)` for a set of eigenvalues
/// (doubly occupied orbitals should be handled by the caller's spin factor).
pub fn electron_count(eigenvalues: &[f64], mu: f64, kt: f64) -> f64 {
    eigenvalues
        .iter()
        .map(|&e| fermi_occupation(e, mu, kt))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_temperature_is_step() {
        assert_eq!(fermi_occupation(-1.0, 0.0, 0.0), 1.0);
        assert_eq!(fermi_occupation(1.0, 0.0, 0.0), 0.0);
        assert_eq!(fermi_occupation(0.0, 0.0, 0.0), 0.5);
    }

    #[test]
    fn half_occupation_at_mu() {
        // Eq. 13: f(µ) = 1/2 at any temperature.
        for kt in [1e-6, 0.01, 1.0] {
            assert!((fermi_occupation(0.3, 0.3, kt) - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    fn monotone_decreasing_in_energy() {
        let kt = 0.1;
        let f: Vec<f64> = (-10..=10)
            .map(|i| fermi_occupation(i as f64 * 0.2, 0.0, kt))
            .collect();
        for w in f.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn tails_are_saturated_without_overflow() {
        assert_eq!(fermi_occupation(1e6, 0.0, 0.01), 0.0);
        assert_eq!(fermi_occupation(-1e6, 0.0, 0.01), 1.0);
    }

    #[test]
    fn smeared_sign_is_tanh() {
        let (eps, mu, kt): (f64, f64, f64) = (0.7, 0.2, 0.3);
        let expect = ((eps - mu) / (2.0 * kt)).tanh();
        assert!((smeared_sign(eps, mu, kt) - expect).abs() < 1e-14);
    }

    #[test]
    fn smeared_sign_limits_to_extended_sign() {
        assert!((smeared_sign(1.0, 0.0, 1e-9) - 1.0).abs() < 1e-12);
        assert!((smeared_sign(-1.0, 0.0, 1e-9) + 1.0).abs() < 1e-12);
        assert_eq!(smeared_sign(0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn electron_count_counts() {
        let eigs = [-2.0, -1.0, 1.0, 2.0];
        assert_eq!(electron_count(&eigs, 0.0, 0.0), 2.0);
        // Symmetric spectrum at finite T still gives half filling.
        assert!((electron_count(&eigs, 0.0, 0.5) - 2.0).abs() < 1e-12);
    }
}
