//! Property-based tests of the simulator's core invariants.

use proptest::prelude::*;
use quclassi_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A strategy producing an arbitrary gate on a register of `n` qubits.
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    let q2 = 0..n;
    let q3 = 0..n;
    let angle = -6.3f64..6.3;
    (q, q2, q3, angle, 0..10u8).prop_map(move |(a, b, c, theta, kind)| {
        let b = if b == a { (a + 1) % n } else { b };
        let mut c = c;
        while c == a || c == b {
            c = (c + 1) % n;
        }
        match kind {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Ry(a, theta),
            3 => Gate::Rz(a, theta),
            4 => Gate::Rx(a, theta),
            5 => Gate::Cnot {
                control: a,
                target: b,
            },
            6 => Gate::CRy {
                control: a,
                target: b,
                theta,
            },
            7 => Gate::CRz {
                control: a,
                target: b,
                theta,
            },
            8 => Gate::Rzz(a, b, theta),
            _ => Gate::CSwap { control: c, a, b },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of gates preserves the norm of the state.
    #[test]
    fn random_circuits_preserve_norm(gates in prop::collection::vec(arb_gate(4), 1..30)) {
        let mut sv = StateVector::zero_state(4);
        sv.apply_gates(&gates).unwrap();
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        let probs = sv.probabilities();
        let total: f64 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(probs.iter().all(|&p| p >= -1e-12));
    }

    /// Applying a gate then its dagger is the identity.
    #[test]
    fn gate_dagger_inverts(gates in prop::collection::vec(arb_gate(3), 1..15)) {
        let mut sv = StateVector::zero_state(3);
        // Prepare some non-trivial state first.
        sv.apply_gates(&[Gate::H(0), Gate::Ry(1, 0.4), Gate::Cnot { control: 0, target: 2 }]).unwrap();
        let reference = sv.clone();
        sv.apply_gates(&gates).unwrap();
        let inverse: Vec<Gate> = gates.iter().rev().map(Gate::dagger).collect();
        sv.apply_gates(&inverse).unwrap();
        prop_assert!((sv.fidelity(&reference).unwrap() - 1.0).abs() < 1e-7);
    }

    /// Gate matrices stay unitary for arbitrary angles.
    #[test]
    fn matrices_are_unitary(gate in arb_gate(3)) {
        prop_assert!(gate.matrix().is_unitary(1e-9), "{:?}", gate);
    }

    /// The decomposition of any gate into the native basis implements the
    /// same unitary (checked column by column on basis states).
    #[test]
    fn decomposition_preserves_semantics(gate in arb_gate(3)) {
        let decomposed = quclassi_sim::transpile::decompose_gate(&gate);
        let dim = 1 << 3;
        for basis in 0..dim {
            let mut a = StateVector::basis_state(3, basis).unwrap();
            let mut b = StateVector::basis_state(3, basis).unwrap();
            a.apply_gate(&gate).unwrap();
            b.apply_gates(&decomposed).unwrap();
            prop_assert!((a.fidelity(&b).unwrap() - 1.0).abs() < 1e-7);
        }
    }

    /// Density-matrix evolution agrees with state-vector evolution for pure
    /// (noise-free) circuits.
    #[test]
    fn density_matches_statevector(gates in prop::collection::vec(arb_gate(3), 1..12)) {
        let mut sv = StateVector::zero_state(3);
        sv.apply_gates(&gates).unwrap();
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_gates(&gates).unwrap();
        prop_assert!((rho.fidelity_with_pure(&sv).unwrap() - 1.0).abs() < 1e-7);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        prop_assert!((rho.purity() - 1.0).abs() < 1e-7);
    }

    /// Noise channels keep the density matrix a valid state (unit trace,
    /// purity in (0, 1]).
    #[test]
    fn channels_keep_states_physical(p in 0.0f64..1.0, gamma in 0.0f64..1.0) {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H(0)).unwrap();
        rho.apply_gate(&Gate::Cnot { control: 0, target: 1 }).unwrap();
        rho.apply_channel(0, &NoiseChannel::Depolarizing(p)).unwrap();
        rho.apply_channel(1, &NoiseChannel::AmplitudeDamping(gamma)).unwrap();
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        let purity = rho.purity();
        prop_assert!(purity > 0.0 && purity <= 1.0 + 1e-9);
        for q in 0..2 {
            let p1 = rho.probability_of_one(q).unwrap();
            prop_assert!((0.0..=1.0).contains(&p1));
        }
    }

    /// Sampling frequencies converge to the exact single-qubit probability.
    #[test]
    fn sampling_matches_probability(x in 0.02f64..0.98) {
        let theta = 2.0 * x.sqrt().asin();
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::Ry(0, theta)).unwrap();
        let mut rng = StdRng::seed_from_u64((x * 1e6) as u64);
        let ones = sv.sample_qubit(0, 8000, &mut rng).unwrap();
        let frac = ones as f64 / 8000.0;
        prop_assert!((frac - x).abs() < 0.05, "x = {x}, sampled {frac}");
    }

    /// Every single gate variant in the gate set preserves the state norm,
    /// at arbitrary angles, applied to a non-trivial state.
    #[test]
    fn every_gate_variant_preserves_norm(theta in -6.3f64..6.3, phi in -6.3f64..6.3) {
        // Exhaustive no-op match: adding a Gate variant fails to compile
        // here until it is added to `all_gates` below.
        let _enforce_coverage = |g: &Gate| match g {
            Gate::I(_) | Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::H(_)
            | Gate::S(_) | Gate::Sdg(_) | Gate::T(_) | Gate::Tdg(_)
            | Gate::Rx(..) | Gate::Ry(..) | Gate::Rz(..) | Gate::R(..)
            | Gate::Cnot { .. } | Gate::Cz { .. } | Gate::Swap(..)
            | Gate::CSwap { .. } | Gate::CRx { .. } | Gate::CRy { .. }
            | Gate::CRz { .. } | Gate::Rxx(..) | Gate::Ryy(..) | Gate::Rzz(..) => (),
        };
        let all_gates = [
            Gate::I(0),
            Gate::X(0),
            Gate::Y(1),
            Gate::Z(2),
            Gate::H(0),
            Gate::S(1),
            Gate::Sdg(2),
            Gate::T(0),
            Gate::Tdg(1),
            Gate::Rx(0, theta),
            Gate::Ry(1, theta),
            Gate::Rz(2, theta),
            Gate::R(0, theta, phi),
            Gate::Cnot { control: 0, target: 1 },
            Gate::Cz { control: 1, target: 2 },
            Gate::Swap(0, 2),
            Gate::CSwap { control: 0, a: 1, b: 2 },
            Gate::CRx { control: 0, target: 1, theta },
            Gate::CRy { control: 1, target: 2, theta },
            Gate::CRz { control: 2, target: 0, theta },
            Gate::Rxx(0, 1, theta),
            Gate::Ryy(1, 2, theta),
            Gate::Rzz(0, 2, theta),
        ];
        for gate in &all_gates {
            let mut sv = StateVector::zero_state(3);
            // Non-trivial entangled start state.
            sv.apply_gates(&[
                Gate::H(0),
                Gate::Ry(1, 0.7),
                Gate::Cnot { control: 0, target: 2 },
            ])
            .unwrap();
            sv.apply_gate(gate).unwrap();
            prop_assert!(
                (sv.norm_sqr() - 1.0).abs() < 1e-12,
                "{gate:?} broke normalisation: {}",
                sv.norm_sqr()
            );
        }
    }

    /// A SWAP test between two arbitrary single-qubit states yields a
    /// fidelity estimate in [0, 1] that matches the analytic overlap.
    #[test]
    fn swap_test_fidelity_in_unit_interval(
        alpha in -6.3f64..6.3,
        beta in -6.3f64..6.3,
        phase_a in -6.3f64..6.3,
        phase_b in -6.3f64..6.3,
    ) {
        // Ancilla is qubit 2; the two compared states live on qubits 0 and 1.
        let mut circuit = Circuit::new(3);
        circuit.ry(0, alpha).rz(0, phase_a).ry(1, beta).rz(1, phase_b);
        circuit.h(2).cswap(2, 0, 1).h(2);
        let mut rng = StdRng::seed_from_u64(99);
        let p1 = Executor::ideal()
            .probability_of_one(&circuit, &[], 2, &mut rng)
            .unwrap();
        // Section 3.3: P(ancilla = 1) = (1 - F) / 2, so F = 1 - 2 P(1).
        let fidelity = 1.0 - 2.0 * p1;
        prop_assert!(
            (-1e-9..=1.0 + 1e-9).contains(&fidelity),
            "SWAP-test fidelity {fidelity} outside [0, 1]"
        );
        // Cross-check against the analytic overlap of the two states.
        let mut sa = StateVector::zero_state(1);
        sa.apply_gates(&[Gate::Ry(0, alpha), Gate::Rz(0, phase_a)]).unwrap();
        let mut sb = StateVector::zero_state(1);
        sb.apply_gates(&[Gate::Ry(0, beta), Gate::Rz(0, phase_b)]).unwrap();
        let analytic = sa.fidelity(&sb).unwrap();
        prop_assert!(
            (fidelity - analytic).abs() < 1e-9,
            "SWAP test {fidelity} vs analytic {analytic}"
        );
    }

    /// Every Kraus channel at every strength keeps the density matrix a
    /// valid state: unit trace, Hermitian-positive probabilities.
    #[test]
    fn kraus_channels_preserve_trace(p in 0.0f64..=1.0) {
        let channels = [
            NoiseChannel::Depolarizing(p),
            NoiseChannel::BitFlip(p),
            NoiseChannel::PhaseFlip(p),
            NoiseChannel::AmplitudeDamping(p),
            NoiseChannel::PhaseDamping(p),
        ];
        for channel in &channels {
            let mut rho = DensityMatrix::zero_state(2);
            rho.apply_gate(&Gate::H(0)).unwrap();
            rho.apply_gate(&Gate::Cnot { control: 0, target: 1 }).unwrap();
            rho.apply_channel(0, channel).unwrap();
            prop_assert!(
                (rho.trace() - 1.0).abs() < 1e-9,
                "{channel:?} broke the trace: {}",
                rho.trace()
            );
            for q in 0..2 {
                let p1 = rho.probability_of_one(q).unwrap();
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p1));
            }
        }
    }

    /// Routing onto a linear chain never loses gates: the routed circuit has
    /// at least as many CNOTs as the logical one and the layout is a
    /// permutation.
    #[test]
    fn routing_is_conservative(gates in prop::collection::vec(arb_gate(4), 1..10)) {
        let native = quclassi_sim::transpile::decompose_all(&gates);
        let coupling = CouplingMap::linear(4);
        let report = quclassi_sim::transpile::route(&native, &coupling).unwrap();
        let logical_cnots = quclassi_sim::transpile::count_cnots(&native);
        prop_assert!(report.cnot_count >= logical_cnots);
        prop_assert_eq!(report.cnot_count, logical_cnots + 3 * report.swaps_inserted);
        let mut layout = report.layout.clone();
        layout.sort_unstable();
        prop_assert_eq!(layout, (0..4).collect::<Vec<_>>());
    }
}

/// The reduction tree pinned by hand on a 15-qubit register (eight
/// 2^12-amplitude leaves): each leaf folds in four interleaved lanes
/// combined as `(l0 + l1) + (l2 + l3)`, and the leaf sums combine by
/// balanced halving. `inner_product`, `fidelity` and `probability_of_one`
/// must return exactly these bits.
#[test]
fn reductions_follow_the_fixed_pairwise_tree() {
    const LEAF: usize = 1 << 12;
    fn halve<T: Copy + std::ops::Add<Output = T>>(sums: &[T]) -> T {
        if sums.len() == 1 {
            return sums[0];
        }
        let mid = sums.len() / 2;
        halve(&sums[..mid]) + halve(&sums[mid..])
    }
    fn mixed_state(n: usize, seed: f64) -> StateVector {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q)
                .ry(q, seed + 0.37 * q as f64)
                .rz(q, 0.21 - seed * q as f64);
        }
        for q in 0..n - 1 {
            c.cnot(q, q + 1);
        }
        c.execute(&[]).unwrap()
    }
    let n = 15;
    let a = mixed_state(n, 0.4);
    let b = mixed_state(n, -1.3);
    assert_eq!(a.dim() / LEAF, 8);

    let inner_leaves: Vec<Complex> = (0..a.dim())
        .step_by(LEAF)
        .map(|lo| {
            let (ar, ai) = (&a.re_parts()[lo..lo + LEAF], &a.im_parts()[lo..lo + LEAF]);
            let (br, bi) = (&b.re_parts()[lo..lo + LEAF], &b.im_parts()[lo..lo + LEAF]);
            let mut sr = [0.0f64; 4];
            let mut si = [0.0f64; 4];
            for i in 0..LEAF {
                sr[i % 4] += ar[i] * br[i] + ai[i] * bi[i];
                si[i % 4] += ar[i] * bi[i] - ai[i] * br[i];
            }
            Complex::new(
                (sr[0] + sr[1]) + (sr[2] + sr[3]),
                (si[0] + si[1]) + (si[2] + si[3]),
            )
        })
        .collect();
    let expected = halve(&inner_leaves);
    let got = a.inner_product(&b).unwrap();
    assert_eq!(got.re.to_bits(), expected.re.to_bits());
    assert_eq!(got.im.to_bits(), expected.im.to_bits());

    // The fidelity squares the same tree.
    assert_eq!(
        a.fidelity(&b).unwrap().to_bits(),
        expected.norm_sqr().to_bits()
    );

    // A qubit inside a leaf (3) and one that selects whole leaves (13).
    for q in [3usize, 13] {
        let bit = 1usize << q;
        let leaves: Vec<f64> = (0..a.dim())
            .step_by(LEAF)
            .map(|lo| {
                let mut acc = 0.0;
                for i in (lo..lo + LEAF).filter(|i| i & bit != 0) {
                    let (r, im) = (a.re_parts()[i], a.im_parts()[i]);
                    acc += r * r + im * im;
                }
                acc
            })
            .collect();
        let p1 = a.probability_of_one(q).unwrap();
        assert_eq!(p1.to_bits(), halve(&leaves).to_bits(), "qubit {q}");
    }
}
