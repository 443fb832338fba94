//! Gate fusion: compiling a [`Circuit`] into a shorter sequence of dense
//! unitaries.
//!
//! QuClassi's hot path re-executes the same circuit thousands of times —
//! once per sample × class × parameter-shift evaluation × shot. Walking the
//! circuit gate-by-gate pays, for every single run, the per-gate costs of
//! binding, operand validation, matrix construction and a full sweep over
//! all `2^n` amplitudes. A [`FusedCircuit`] moves that work to compile time:
//!
//! * contiguous runs of dense gates whose combined support fits in
//!   [`MAX_FUSED_QUBITS`] qubits are **fused** into a single `2^k × 2^k`
//!   matrix — but only when a cost model says the merged sweep is no more
//!   expensive than the separate ones, so fusion never adds arithmetic;
//! * diagonal/permutation gates (X, Z, S, T, SWAP, CNOT, CZ, CSWAP) keep
//!   their multiply-free specialised application paths instead of being
//!   inflated into dense matrices;
//! * groups containing no symbolic parameters are multiplied out **once at
//!   compile time**; parametric groups store a compact recipe and rebuild
//!   only their own small matrix at bind time;
//! * parameter-free instructions are **hoisted into a static prelude** when
//!   they commute past everything before them (disjoint qubit support), and
//!   the prelude's |0…0⟩ evolution is precomputed at compile time — so
//!   [`FusedCircuit::execute`] starts from a cloned state and replays only
//!   the parametric remainder;
//! * execution applies each fused matrix with the specialised dense kernels
//!   of [`StateVector`]; group matrices are rebuilt into stack scratch, so
//!   the only per-bind heap allocations are the constituent gates' own
//!   small matrix constructions.
//!
//! Fusion is exact up to floating-point re-association: the fused product
//! equals the mathematical product of the constituent gate matrices, so
//! final statevectors agree with unfused execution to ~1e-14 (the
//! `fusion_equivalence` property suite pins 1e-10 over random circuits).
//!
//! Fusion applies to the *unitary* part of execution only. Noisy trajectory
//! simulation interleaves stochastic Kraus branches between gates, so the
//! [`crate::executor::Executor`] falls back to per-gate application (via
//! [`FusedCircuit::source`]) whenever a noise model is active.

use crate::circuit::{Circuit, Operation};
use crate::complex::Complex;
use crate::error::SimError;
use crate::gate::Gate;
use crate::state::{StateVector, MAX_DENSE_QUBITS};

/// Maximum number of qubits a fused group may span. 2³×2³ matrices keep the
/// per-block arithmetic within one cache line's worth of amplitudes while
/// still swallowing every gate in the QuClassi set (CSWAP is 3-qubit).
pub const MAX_FUSED_QUBITS: usize = 3;

/// Declares how a gate participates in fusion.
///
/// This `match` is deliberately **exhaustive with no wildcard arm**: adding
/// a new [`Gate`] variant fails compilation here until the variant declares
/// its fusion behaviour, so the fusion engine can never silently mishandle
/// a gate it has not been taught about.
fn fusion_behavior(gate: &Gate) -> FusionBehavior {
    match gate {
        // Diagonal / permutation gates with multiply-free specialised
        // application paths in the state-vector engine: folding one into a
        // dense group is only worth it when the group already spans its
        // qubits, which the cost model decides.
        Gate::I(_)
        | Gate::X(_)
        | Gate::Z(_)
        | Gate::S(_)
        | Gate::Sdg(_)
        | Gate::T(_)
        | Gate::Tdg(_)
        | Gate::Swap(..)
        | Gate::Cnot { .. }
        | Gate::Cz { .. }
        | Gate::CSwap { .. } => FusionBehavior::Cheap,
        // Genuinely dense unitaries: fusing them saves full sweeps.
        Gate::Y(_)
        | Gate::H(_)
        | Gate::Rx(..)
        | Gate::Ry(..)
        | Gate::Rz(..)
        | Gate::R(..)
        | Gate::CRx { .. }
        | Gate::CRy { .. }
        | Gate::CRz { .. }
        | Gate::Rxx(..)
        | Gate::Ryy(..)
        | Gate::Rzz(..) => FusionBehavior::Dense,
    }
}

/// How a gate participates in fusion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusionBehavior {
    /// A dense unitary; applying it alone costs `2^arity` multiplies per
    /// amplitude, so multiplying it into a fused group saves sweeps.
    Dense,
    /// A diagonal/permutation gate with a multiply-free specialised path;
    /// left unfused unless a group already covers its qubits.
    Cheap,
    /// Must be applied on its own through [`StateVector::apply_gate`]
    /// (reserved for future non-unitary / measurement-like operations).
    Opaque,
}

/// Whether this gate may be multiplied into a fused group at all.
pub fn is_fusible(gate: &Gate) -> bool {
    fusion_behavior(gate) != FusionBehavior::Opaque
}

/// Estimated cost of applying the gate on its own, in dense-kernel
/// multiplies per amplitude: `2^k` for a dense `k`-qubit unitary, a small
/// constant for the multiply-free specialised paths.
fn op_unit_cost(gate: &Gate) -> f64 {
    match fusion_behavior(gate) {
        FusionBehavior::Dense => (1usize << gate.arity()) as f64,
        FusionBehavior::Cheap => 0.5,
        FusionBehavior::Opaque => f64::INFINITY,
    }
}

/// One compiled instruction of a fused circuit.
#[derive(Clone, Debug, PartialEq)]
enum FusedOp {
    /// A parameter-free group whose matrix was multiplied out at compile
    /// time. `qubits` is the group support (first entry = least-significant
    /// matrix bit); `matrix` is flat row-major of size `4^qubits.len()`.
    Static {
        qubits: Vec<usize>,
        matrix: Vec<Complex>,
    },
    /// A group containing at least one parametric gate: its matrix is
    /// rebuilt from the stored operations at bind time.
    Dynamic {
        qubits: Vec<usize>,
        ops: Vec<Operation>,
    },
    /// An operation excluded from fusion (opaque behaviour or malformed
    /// operands such as duplicate qubits — the latter surface their
    /// [`SimError`] at execution, never a silent misindex).
    Raw(Operation),
}

impl FusedOp {
    fn qubit_span(&self) -> usize {
        match self {
            FusedOp::Static { qubits, .. } | FusedOp::Dynamic { qubits, .. } => qubits.len(),
            FusedOp::Raw(op) => op.qubits().len(),
        }
    }
}

/// A circuit compiled into fused dense unitaries, reusable across any number
/// of executions (shots, samples, parameter-shift evaluations).
///
/// Compile once with [`FusedCircuit::compile`], then call
/// [`FusedCircuit::execute`] / [`FusedCircuit::execute_into`] with fresh
/// parameter vectors. The original circuit remains available through
/// [`FusedCircuit::source`] for paths fusion cannot serve (per-gate noise
/// interleaving, transpilation, introspection).
///
/// Beyond fusing, compilation hoists a **static prelude**: parameter-free
/// instructions are commuted to the front of the program whenever their
/// qubit support is disjoint from every instruction they jump over (tensor
/// factors on disjoint wires commute exactly), and the state they produce
/// from |0…0⟩ is evaluated once at compile time. [`FusedCircuit::execute`]
/// then starts from a clone of that state and only replays the parametric
/// remainder — in QuClassi's SWAP-test circuits this removes the whole
/// data-register preparation from the per-evaluation cost.
///
/// ```
/// use quclassi_sim::circuit::Circuit;
/// use quclassi_sim::fusion::FusedCircuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).ry_param(0, 0).rz_param(0, 1).ry_param(1, 2).cnot(0, 1);
/// let fused = FusedCircuit::compile(&c);
/// // The compiled program is shorter than the gate list…
/// assert!(fused.num_fused_ops() < c.gate_count());
/// // …and executes to the same state (up to float re-association).
/// let params = [0.4, -0.9, 2.2];
/// let a = fused.execute(&params).unwrap();
/// let b = c.execute(&params).unwrap();
/// for (x, y) in a.to_amplitudes().iter().zip(b.to_amplitudes().iter()) {
///     assert!(x.approx_eq(*y, 1e-12));
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FusedCircuit {
    source: Circuit,
    /// All fused instructions, with the movable static prelude first. The
    /// full list is semantically equivalent to the source circuit.
    program: Vec<FusedOp>,
    /// How many leading instructions of `program` are baked into
    /// `prefix_state`.
    prefix_len: usize,
    /// |0…0⟩ evolved through `program[..prefix_len]`.
    prefix_state: StateVector,
}

impl FusedCircuit {
    /// Compiles `circuit` into fused groups.
    ///
    /// Grouping is greedy over the program order: each operation joins the
    /// current group when (a) the union of supports stays within
    /// [`MAX_FUSED_QUBITS`] qubits and (b) fusing does not increase the
    /// arithmetic cost of execution. Applying a dense `k`-qubit unitary
    /// costs `2^k` multiplies per amplitude, so an op is absorbed only when
    /// `2^k_merged ≤ 2^k_group + 2^k_op` — which accepts the profitable
    /// cases (same-qubit runs collapse sweeps outright; small gates vanish
    /// into an overlapping wider gate; two 1-qubit gates share one sweep at
    /// equal cost) and rejects flop-increasing widening (e.g. three
    /// disjoint 1-qubit gates into an 8×8). Only *contiguous* runs are
    /// fused, so the fused product is always the exact mathematical product
    /// of the constituent gates — no commutation analysis, no reordering.
    pub fn compile(circuit: &Circuit) -> FusedCircuit {
        let mut program: Vec<FusedOp> = Vec::new();
        // The group being grown.
        let mut qubits: Vec<usize> = Vec::new();
        let mut ops: Vec<Operation> = Vec::new();
        let mut parametric = false;
        let mut group_cost = 0.0f64;

        let flush = |qubits: &mut Vec<usize>,
                     ops: &mut Vec<Operation>,
                     parametric: &mut bool,
                     group_cost: &mut f64| {
            if ops.is_empty() {
                return None;
            }
            let group_qubits = std::mem::take(qubits);
            let group_ops = std::mem::take(ops);
            let single_cheap = group_ops.len() == 1
                && matches!(
                    fusion_behavior(&template_of(&group_ops[0])),
                    FusionBehavior::Cheap
                );
            let fused = if single_cheap {
                // A lone diagonal/permutation gate keeps its multiply-free
                // specialised application path.
                FusedOp::Raw(group_ops.into_iter().next().expect("one op"))
            } else if *parametric {
                FusedOp::Dynamic {
                    qubits: group_qubits,
                    ops: group_ops,
                }
            } else {
                let matrix = fuse_group(&group_qubits, &group_ops, &[])
                    .expect("parameter-free group must bind");
                FusedOp::Static {
                    qubits: group_qubits,
                    matrix,
                }
            };
            *parametric = false;
            *group_cost = 0.0;
            Some(fused)
        };

        for op in circuit.operations() {
            let op_qubits = op.qubits();
            let template = template_of(op);
            let malformed = has_duplicates(&op_qubits);
            if malformed || !is_fusible(&template) || op_qubits.len() > MAX_FUSED_QUBITS {
                if let Some(g) = flush(&mut qubits, &mut ops, &mut parametric, &mut group_cost) {
                    program.push(g);
                }
                program.push(FusedOp::Raw(op.clone()));
                continue;
            }
            let op_cost = op_unit_cost(&template);
            if ops.is_empty() {
                qubits = op_qubits;
                group_cost = op_cost;
            } else {
                let mut merged = qubits.clone();
                for &q in &op_qubits {
                    if !merged.contains(&q) {
                        merged.push(q);
                    }
                }
                let fused_cost = (1usize << merged.len()) as f64;
                // Mixing parametric and parameter-free ops in one group must
                // be *strictly* profitable: an equal-cost merge would drag
                // static work into the per-bind rebuild and pin it behind
                // the parametric ops, blocking static-prelude hoisting.
                let op_parametric = matches!(op, Operation::Parametric { .. });
                let profitable = if op_parametric == parametric {
                    fused_cost <= group_cost + op_cost
                } else {
                    fused_cost < group_cost + op_cost
                };
                if merged.len() > MAX_FUSED_QUBITS || !profitable {
                    if let Some(g) = flush(&mut qubits, &mut ops, &mut parametric, &mut group_cost)
                    {
                        program.push(g);
                    }
                    qubits = op_qubits;
                    group_cost = op_cost;
                } else {
                    qubits = merged;
                    group_cost = fused_cost;
                }
            }
            parametric |= matches!(op, Operation::Parametric { .. });
            ops.push(op.clone());
        }
        if let Some(g) = flush(&mut qubits, &mut ops, &mut parametric, &mut group_cost) {
            program.push(g);
        }

        // Static-prelude hoisting: commute parameter-free, well-formed
        // instructions to the front when their support is disjoint from
        // every instruction they jump over (disjoint tensor factors commute
        // exactly), then evaluate the prelude once.
        let mut blocked = 0u64;
        let mut prefix: Vec<FusedOp> = Vec::new();
        let mut rest: Vec<FusedOp> = Vec::new();
        for op in program {
            let movable = match &op {
                FusedOp::Static { qubits, .. } => Some(support_mask(qubits)),
                FusedOp::Raw(Operation::Fixed(g)) => {
                    let qs = g.qubits();
                    (!has_duplicates(&qs)).then(|| support_mask(&qs))
                }
                FusedOp::Dynamic { .. } | FusedOp::Raw(Operation::Parametric { .. }) => None,
            };
            match movable {
                Some(mask) if mask & blocked == 0 => prefix.push(op),
                _ => {
                    blocked |= match &op {
                        FusedOp::Static { qubits, .. } | FusedOp::Dynamic { qubits, .. } => {
                            support_mask(qubits)
                        }
                        FusedOp::Raw(raw) => support_mask(&raw.qubits()),
                    };
                    rest.push(op);
                }
            }
        }
        let mut prefix_state = StateVector::zero_state(circuit.num_qubits());
        for op in &prefix {
            match op {
                FusedOp::Static { qubits, matrix } => {
                    prefix_state.apply_unitary_unchecked(qubits, matrix);
                }
                FusedOp::Raw(Operation::Fixed(g)) => prefix_state
                    .apply_gate(g)
                    .expect("hoisted gates are validated at circuit construction"),
                _ => unreachable!("only parameter-free ops are hoisted"),
            }
        }
        let prefix_len = prefix.len();
        prefix.extend(rest);

        FusedCircuit {
            source: circuit.clone(),
            program: prefix,
            prefix_len,
            prefix_state,
        }
    }

    /// The original, unfused circuit.
    pub fn source(&self) -> &Circuit {
        &self.source
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.source.num_qubits()
    }

    /// Number of symbolic parameters the circuit references.
    pub fn num_parameters(&self) -> usize {
        self.source.num_parameters()
    }

    /// Number of fused instructions (static + dynamic + raw). The whole
    /// point: this is typically several times smaller than
    /// `source().gate_count()`.
    pub fn num_fused_ops(&self) -> usize {
        self.program.len()
    }

    /// Number of instructions whose matrix was precomputed at compile time.
    pub fn num_static_ops(&self) -> usize {
        self.program
            .iter()
            .filter(|op| matches!(op, FusedOp::Static { .. }))
            .count()
    }

    /// The widest fused group, in qubits.
    pub fn max_group_span(&self) -> usize {
        self.program
            .iter()
            .map(FusedOp::qubit_span)
            .max()
            .unwrap_or(0)
    }

    /// Number of instructions hoisted into the precomputed static prelude.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Runs the fused circuit on |0…0⟩ and returns the final state. Starts
    /// from the precomputed prelude state, so only the parametric remainder
    /// of the program is evaluated.
    pub fn execute(&self, params: &[f64]) -> Result<StateVector, SimError> {
        let mut sv = self.prefix_state.clone();
        self.apply_ops(&mut sv, &self.program[self.prefix_len..], params)?;
        Ok(sv)
    }

    /// [`FusedCircuit::execute`] into a caller-owned scratch state,
    /// reusing its amplitude buffer: the prelude state is copied in (no
    /// allocation once the scratch has the right capacity) and the
    /// parametric remainder replayed on top. This is the serving hot loop's
    /// entry point — steady-state executions of one circuit shape touch the
    /// heap only for the per-bind group-matrix rebuilds of parametric
    /// groups' constituent gates.
    pub fn execute_reusing(
        &self,
        params: &[f64],
        scratch: &mut StateVector,
    ) -> Result<(), SimError> {
        scratch.clone_from(&self.prefix_state);
        self.apply_ops(scratch, &self.program[self.prefix_len..], params)
    }

    /// Applies the fused circuit to an existing state in place (the full
    /// program — the prelude shortcut only applies to |0…0⟩ starts).
    pub fn execute_into(&self, state: &mut StateVector, params: &[f64]) -> Result<(), SimError> {
        if state.num_qubits() != self.num_qubits() {
            return Err(SimError::DimensionMismatch {
                expected: self.num_qubits(),
                found: state.num_qubits(),
            });
        }
        self.apply_ops(state, &self.program, params)
    }

    fn apply_ops(
        &self,
        state: &mut StateVector,
        ops: &[FusedOp],
        params: &[f64],
    ) -> Result<(), SimError> {
        for op in ops {
            match op {
                FusedOp::Static { qubits, matrix } => {
                    crate::profile::fused_group();
                    state.apply_unitary_unchecked(qubits, matrix);
                }
                FusedOp::Dynamic { qubits, ops } => {
                    crate::profile::fused_group();
                    let mut matrix = ZERO_GROUP_MATRIX;
                    fuse_group_into(qubits, ops, params, &mut matrix)?;
                    let size = 1usize << qubits.len();
                    state.apply_unitary_unchecked(qubits, &matrix[..size * size]);
                }
                FusedOp::Raw(op) => {
                    let gate = op.bind(params)?;
                    state.apply_gate(&gate)?;
                }
            }
        }
        Ok(())
    }
}

/// A fused circuit with one concrete parameter vector bound in: the
/// "bind parameters into an already-fused circuit" entry point.
///
/// [`FusedCircuit::bind`] resolves every dynamic group's matrix and every
/// raw parametric gate **once**, so each [`BoundFusedCircuit::execute`] call
/// is pure matrix/gate application — no parameter lookup, no group-matrix
/// rebuild, no validation. Use it when one `(circuit, parameters)` pair is
/// replayed many times (repeated serving of a hot input, shot loops,
/// [`BoundFusedCircuit::execute_into`] over a stream of start states).
///
/// Execution is bit-identical to [`FusedCircuit::execute`] with the same
/// parameters: binding changes *when* matrices are built, never *what* is
/// applied.
///
/// ```
/// use quclassi_sim::circuit::Circuit;
/// use quclassi_sim::fusion::FusedCircuit;
///
/// let mut c = Circuit::new(2);
/// c.ry_param(0, 0).rz_param(1, 1).cnot(0, 1);
/// let fused = FusedCircuit::compile(&c);
/// let bound = fused.bind(&[0.3, -1.2]).unwrap();
/// // Replaying the bound artifact costs no per-run binding…
/// let a = bound.execute();
/// let b = bound.execute();
/// assert_eq!(a, b);
/// // …and reproduces the fused execution bit-for-bit.
/// assert_eq!(a, fused.execute(&[0.3, -1.2]).unwrap());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BoundFusedCircuit {
    num_qubits: usize,
    prefix_state: StateVector,
    ops: Vec<BoundOp>,
}

/// One fully-resolved instruction of a [`BoundFusedCircuit`].
#[derive(Clone, Debug, PartialEq)]
enum BoundOp {
    /// A dense unitary (static group, or dynamic group bound at bind time).
    Unitary {
        qubits: Vec<usize>,
        matrix: Vec<Complex>,
    },
    /// A bound raw gate keeping its specialised application path.
    Gate(Gate),
}

impl BoundFusedCircuit {
    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of resolved instructions replayed per execution (excludes the
    /// precomputed prelude).
    pub fn num_bound_ops(&self) -> usize {
        self.ops.len()
    }

    /// Runs the bound circuit on |0…0⟩, starting from the precomputed
    /// prelude state. Infallible: every failure mode (unbound parameters,
    /// malformed operands) was surfaced by [`FusedCircuit::bind`].
    pub fn execute(&self) -> StateVector {
        let mut sv = self.prefix_state.clone();
        self.replay(&mut sv);
        sv
    }

    /// [`BoundFusedCircuit::execute`] into a caller-owned scratch
    /// state, reusing its amplitude buffer.
    ///
    /// This is the **zero-allocation replay path**: every matrix was built
    /// at bind time, raw gates keep their multiply-free specialised
    /// kernels, and the prelude copy reuses the scratch's existing buffer —
    /// so once the scratch has been sized by a first call, steady-state
    /// replays perform **no heap allocation at all** (asserted by the
    /// `zero_alloc` test suite with a counting allocator).
    pub fn execute_reusing(&self, scratch: &mut StateVector) {
        scratch.clone_from(&self.prefix_state);
        self.replay(scratch);
    }

    /// Applies the bound instructions (prelude *not* included — the prelude
    /// shortcut only applies to |0…0⟩ starts; use the source circuit for
    /// arbitrary-state replays of the full program) to an existing state.
    pub fn execute_into(&self, state: &mut StateVector) -> Result<(), SimError> {
        if state.num_qubits() != self.num_qubits {
            return Err(SimError::DimensionMismatch {
                expected: self.num_qubits,
                found: state.num_qubits(),
            });
        }
        self.replay(state);
        Ok(())
    }

    fn replay(&self, state: &mut StateVector) {
        for op in &self.ops {
            match op {
                BoundOp::Unitary { qubits, matrix } => {
                    crate::profile::fused_group();
                    state.apply_unitary_unchecked(qubits, matrix);
                }
                BoundOp::Gate(gate) => {
                    // Bound raw gates are always diagonal/permutation
                    // specialisations (dense gates were fused into groups),
                    // and bind validated their operands — dispatch without
                    // re-validation so replay never touches the heap.
                    if !state.apply_gate_specialized(gate) {
                        state
                            .apply_gate(gate)
                            .expect("gates validated at bind time");
                    }
                }
            }
        }
    }
}

impl FusedCircuit {
    /// Binds `params` into the fused program, resolving every dynamic group
    /// matrix and raw parametric gate exactly once. See
    /// [`BoundFusedCircuit`] for when this pays.
    ///
    /// # Errors
    /// Surfaces unbound-parameter and malformed-operand errors immediately
    /// (instead of at every execution, as the unbound path must).
    pub fn bind(&self, params: &[f64]) -> Result<BoundFusedCircuit, SimError> {
        let mut ops = Vec::with_capacity(self.program.len() - self.prefix_len);
        for op in &self.program[self.prefix_len..] {
            ops.push(match op {
                FusedOp::Static { qubits, matrix } => BoundOp::Unitary {
                    qubits: qubits.clone(),
                    matrix: matrix.clone(),
                },
                FusedOp::Dynamic { qubits, ops } => {
                    let mut matrix = ZERO_GROUP_MATRIX;
                    fuse_group_into(qubits, ops, params, &mut matrix)?;
                    let size = 1usize << qubits.len();
                    BoundOp::Unitary {
                        qubits: qubits.clone(),
                        matrix: matrix[..size * size].to_vec(),
                    }
                }
                FusedOp::Raw(op) => {
                    let gate = op.bind(params)?;
                    // Reject malformed operands now, not at replay.
                    let qubits = gate.qubits();
                    if let Some(&dup) = qubits
                        .iter()
                        .find(|&&q| qubits.iter().filter(|&&o| o == q).count() > 1)
                    {
                        return Err(SimError::DuplicateQubit(dup));
                    }
                    if let Some(&oob) = qubits.iter().find(|&&q| q >= self.num_qubits()) {
                        return Err(SimError::QubitOutOfRange {
                            qubit: oob,
                            num_qubits: self.num_qubits(),
                        });
                    }
                    BoundOp::Gate(gate)
                }
            });
        }
        Ok(BoundFusedCircuit {
            num_qubits: self.num_qubits(),
            prefix_state: self.prefix_state.clone(),
            ops,
        })
    }
}

/// Bitmask over qubit indices (the simulator caps registers at 26 qubits,
/// well within u64).
fn support_mask(qubits: &[usize]) -> u64 {
    qubits.iter().fold(0u64, |m, &q| m | (1u64 << q))
}

/// The gate whose fusion behaviour/cost classifies this operation (for
/// parametric ops, the template — behaviour never depends on the angle).
fn template_of(op: &Operation) -> Gate {
    match op {
        Operation::Fixed(g) => g.clone(),
        Operation::Parametric { template, .. } => template.clone(),
    }
}

fn has_duplicates(qubits: &[usize]) -> bool {
    for i in 0..qubits.len() {
        for j in (i + 1)..qubits.len() {
            if qubits[i] == qubits[j] {
                return true;
            }
        }
    }
    false
}

/// Multiplies a group of operations into one flat row-major `2^k × 2^k`
/// matrix over the support `qubits` (first entry = least-significant matrix
/// bit), binding parametric gates against `params`.
/// Scratch large enough for any fused-group matrix (`4^MAX_FUSED_QUBITS`
/// entries): lives on the caller's stack so per-bind rebuilds allocate
/// nothing.
type GroupMatrix = [Complex; 1 << (2 * MAX_FUSED_QUBITS)];

const ZERO_GROUP_MATRIX: GroupMatrix = [Complex::ZERO; 1 << (2 * MAX_FUSED_QUBITS)];

/// Multiplies a group of operations into `out[..4^k]` (flat row-major) over
/// the support `qubits`, binding parametric gates against `params`.
fn fuse_group_into(
    qubits: &[usize],
    ops: &[Operation],
    params: &[f64],
    out: &mut GroupMatrix,
) -> Result<(), SimError> {
    let k = qubits.len();
    debug_assert!(k <= MAX_FUSED_QUBITS && MAX_FUSED_QUBITS <= MAX_DENSE_QUBITS);
    let size = 1usize << k;
    // Accumulate column-major: column c (the image of basis state |c⟩ under
    // the product so far) occupies acc[c*size .. (c+1)*size]; each gate is
    // applied to every column as a k-qubit mini statevector.
    let mut acc = ZERO_GROUP_MATRIX;
    for c in 0..size {
        acc[c * size + c] = Complex::ONE;
    }
    let mut positions = [0usize; MAX_FUSED_QUBITS];
    for op in ops {
        let gate = op.bind(params)?;
        let gate_qubits = gate.qubits();
        let g = gate_qubits.len();
        for (slot, q) in positions.iter_mut().zip(gate_qubits.iter()) {
            *slot = qubits
                .iter()
                .position(|gq| gq == q)
                .expect("gate qubit must be inside its group support");
        }
        // Per-gate index tables, shared by all columns.
        let gsize = 1usize << g;
        let mut offs = [0usize; 1 << MAX_FUSED_QUBITS];
        for (sub, off) in offs[..gsize].iter_mut().enumerate() {
            let mut o = 0usize;
            for (bit, &p) in positions[..g].iter().enumerate() {
                if sub & (1 << bit) != 0 {
                    o |= 1 << p;
                }
            }
            *off = o;
        }
        let full_mask: usize = positions[..g].iter().map(|&p| 1usize << p).sum();
        let m = gate.matrix();
        for c in 0..size {
            apply_small_unitary(
                &mut acc[c * size..(c + 1) * size],
                &offs[..gsize],
                full_mask,
                m.as_slice(),
            );
        }
    }
    // Transpose into the caller's row-major buffer.
    for c in 0..size {
        for r in 0..size {
            out[r * size + c] = acc[c * size + r];
        }
    }
    Ok(())
}

/// Heap-allocating wrapper around [`fuse_group_into`], used at compile time
/// to bake parameter-free groups.
fn fuse_group(
    qubits: &[usize],
    ops: &[Operation],
    params: &[f64],
) -> Result<Vec<Complex>, SimError> {
    let mut scratch = ZERO_GROUP_MATRIX;
    fuse_group_into(qubits, ops, params, &mut scratch)?;
    Ok(scratch[..(1 << qubits.len()) * (1 << qubits.len())].to_vec())
}

/// Applies a small gate matrix to a dense mini statevector in place, given
/// the precomputed per-basis-state offsets `offs` (length = the gate's
/// matrix dimension) and the OR of its position masks.
fn apply_small_unitary(vec: &mut [Complex], offs: &[usize], full_mask: usize, m: &[Complex]) {
    let gsize = offs.len();
    debug_assert_eq!(m.len(), gsize * gsize);
    let mut scratch = [Complex::ZERO; 1 << MAX_FUSED_QUBITS];
    for base in 0..vec.len() {
        if base & full_mask != 0 {
            continue;
        }
        for (slot, &off) in scratch[..gsize].iter_mut().zip(offs.iter()) {
            *slot = vec[base | off];
        }
        for (row, &off) in offs.iter().enumerate() {
            let mrow = &m[row * gsize..(row + 1) * gsize];
            let mut acc = Complex::ZERO;
            for (col, &amp) in scratch[..gsize].iter().enumerate() {
                acc += mrow[col] * amp;
            }
            vec[base | off] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        for (x, y) in a.to_amplitudes().iter().zip(b.to_amplitudes().iter()) {
            assert!(x.approx_eq(*y, tol), "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn fused_bell_circuit_matches_unfused() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let fused = FusedCircuit::compile(&c);
        // CNOT keeps its multiply-free permutation path (fusing it into a
        // dense 4×4 would cost more than H's 2×2 sweep plus the swap pass);
        // H is precomputed as a static 2×2.
        assert_eq!(fused.num_fused_ops(), 2);
        assert_eq!(fused.num_static_ops(), 1);
        assert_states_close(&fused.execute(&[]).unwrap(), &c.execute(&[]).unwrap(), TOL);
    }

    #[test]
    fn dense_runs_absorb_cheap_gates_on_covered_qubits() {
        // X(0) then RY(0), RZ(0): the cheap X is absorbed into the dense
        // same-qubit run for free, one 2×2 sweep total.
        let mut c = Circuit::new(1);
        c.x(0).ry(0, 0.8).rz(0, -0.3);
        let fused = FusedCircuit::compile(&c);
        assert_eq!(fused.num_fused_ops(), 1);
        assert_eq!(fused.num_static_ops(), 1);
        assert_states_close(&fused.execute(&[]).unwrap(), &c.execute(&[]).unwrap(), TOL);
    }

    #[test]
    fn lone_cheap_gates_stay_on_their_specialised_paths() {
        let mut c = Circuit::new(3);
        c.x(0);
        c.cswap(0, 1, 2);
        c.push(Gate::Cz {
            control: 1,
            target: 2,
        });
        let fused = FusedCircuit::compile(&c);
        assert_eq!(fused.num_fused_ops(), 3);
        assert_eq!(fused.num_static_ops(), 0, "no dense matrices needed");
        assert_states_close(&fused.execute(&[]).unwrap(), &c.execute(&[]).unwrap(), TOL);
    }

    #[test]
    fn fused_parametric_circuit_rebinds() {
        let mut c = Circuit::new(2);
        c.ry_param(0, 0).rz_param(0, 1).ry_param(1, 2).cnot(0, 1);
        let fused = FusedCircuit::compile(&c);
        assert!(fused.num_fused_ops() < c.gate_count());
        for params in [vec![0.3, 1.2, -0.7], vec![2.0, 0.0, 0.5]] {
            assert_states_close(
                &fused.execute(&params).unwrap(),
                &c.execute(&params).unwrap(),
                TOL,
            );
        }
    }

    #[test]
    fn swap_test_style_circuit_fuses_and_matches() {
        // Ancilla + two 2-qubit registers: the QuClassi Fig. 7 shape.
        let mut c = Circuit::new(5);
        c.h(0);
        for q in 1..=4 {
            c.ry(q, 0.2 + 0.1 * q as f64).rz(q, 0.4 - 0.05 * q as f64);
        }
        c.cswap(0, 1, 3).cswap(0, 2, 4).h(0);
        let fused = FusedCircuit::compile(&c);
        // 12 gates collapse to ≤ 7 instructions: the rotation runs fuse into
        // 2-qubit blocks, the CSWAPs keep their permutation paths.
        assert!(
            fused.num_fused_ops() <= 7,
            "expected heavy fusion, got {} ops for {} gates",
            fused.num_fused_ops(),
            c.gate_count()
        );
        assert!(fused.max_group_span() <= MAX_FUSED_QUBITS);
        assert_states_close(
            &fused.execute(&[]).unwrap(),
            &c.execute(&[]).unwrap(),
            1e-10,
        );
    }

    #[test]
    fn fusion_preserves_norm() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        c.cnot(0, 1).cnot(1, 2).cnot(2, 3);
        c.ry(0, 1.1).rz(1, -0.3).rx(2, 2.7);
        c.cswap(0, 1, 2);
        let fused = FusedCircuit::compile(&c);
        let sv = fused.execute(&[]).unwrap();
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_circuit_compiles_to_nothing() {
        let c = Circuit::new(3);
        let fused = FusedCircuit::compile(&c);
        assert_eq!(fused.num_fused_ops(), 0);
        assert_eq!(fused.max_group_span(), 0);
        let sv = fused.execute(&[]).unwrap();
        assert_eq!(sv.amplitude(0), Complex::ONE);
    }

    #[test]
    fn malformed_gate_errors_instead_of_misindexing() {
        // Circuit::push validates ranges but not duplicates; fusion must
        // surface the duplicate-operand error, not fold it into a matrix.
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(1, 1));
        let fused = FusedCircuit::compile(&c);
        assert_eq!(fused.execute(&[]), Err(SimError::DuplicateQubit(1)));
    }

    #[test]
    fn unbound_parameter_errors_at_execute() {
        let mut c = Circuit::new(1);
        c.ry_param(0, 3);
        let fused = FusedCircuit::compile(&c);
        assert!(matches!(
            fused.execute(&[0.1]),
            Err(SimError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn execute_into_checks_register_width() {
        let mut c = Circuit::new(2);
        c.h(0);
        let fused = FusedCircuit::compile(&c);
        let mut sv = StateVector::zero_state(3);
        assert!(matches!(
            fused.execute_into(&mut sv, &[]),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn every_gate_variant_declares_fusion_behavior() {
        // Companion to the exhaustive match in `fusion_behavior`: spot-check
        // representative variants of each arity.
        for g in [
            Gate::H(0),
            Gate::Ry(0, 0.5),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::Rzz(0, 1, 0.3),
            Gate::CSwap {
                control: 0,
                a: 1,
                b: 2,
            },
        ] {
            assert!(is_fusible(&g), "{} should be fusible", g.name());
        }
    }

    #[test]
    fn bound_circuit_matches_fused_execution_bit_for_bit() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.ry_param(1, 0).rz_param(1, 1).ry_param(2, 2);
        c.cswap(0, 1, 2).h(0);
        let fused = FusedCircuit::compile(&c);
        for params in [vec![0.7, -0.2, 1.9], vec![0.0, 3.1, -2.4]] {
            let bound = fused.bind(&params).unwrap();
            assert_eq!(bound.num_qubits(), 3);
            assert!(bound.num_bound_ops() <= fused.num_fused_ops());
            let direct = fused.execute(&params).unwrap();
            // Repeated replays are free of rebinding and identical.
            assert_eq!(bound.execute(), direct);
            assert_eq!(bound.execute(), direct);
        }
    }

    #[test]
    fn bind_surfaces_errors_eagerly() {
        let mut c = Circuit::new(1);
        c.ry_param(0, 3);
        let fused = FusedCircuit::compile(&c);
        assert!(matches!(
            fused.bind(&[0.1]),
            Err(SimError::UnboundParameter { .. })
        ));
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(1, 1));
        let fused = FusedCircuit::compile(&c);
        assert_eq!(fused.bind(&[]).err(), Some(SimError::DuplicateQubit(1)));
    }

    #[test]
    fn bound_execute_into_checks_width_and_skips_prelude_state() {
        let mut c = Circuit::new(2);
        c.h(0).ry_param(1, 0);
        let fused = FusedCircuit::compile(&c);
        let bound = fused.bind(&[1.3]).unwrap();
        let mut wrong = StateVector::zero_state(3);
        assert!(matches!(
            bound.execute_into(&mut wrong),
            Err(SimError::DimensionMismatch { .. })
        ));
        // execute_into replays only the non-prelude remainder, matching the
        // fused execute_into contract for states that already saw the prelude.
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H(0)).unwrap();
        bound.execute_into(&mut sv).unwrap();
        assert_states_close(&sv, &fused.execute(&[1.3]).unwrap(), TOL);
    }

    #[test]
    fn long_random_like_circuit_matches_unfused() {
        let mut c = Circuit::new(4);
        let gates = [
            Gate::H(0),
            Gate::Ry(1, 0.37),
            Gate::Cnot {
                control: 1,
                target: 2,
            },
            Gate::Rzz(2, 3, 0.91),
            Gate::CSwap {
                control: 0,
                a: 2,
                b: 3,
            },
            Gate::Rx(3, -1.2),
            Gate::T(0),
            Gate::Swap(1, 3),
            Gate::CRy {
                control: 3,
                target: 0,
                theta: 2.2,
            },
            Gate::Sdg(2),
        ];
        for g in &gates {
            c.push(g.clone());
        }
        let fused = FusedCircuit::compile(&c);
        assert!(fused.num_fused_ops() < gates.len());
        assert_states_close(
            &fused.execute(&[]).unwrap(),
            &c.execute(&[]).unwrap(),
            1e-10,
        );
    }
}
