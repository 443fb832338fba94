//! State-vector representation of a pure quantum state and in-place gate
//! application.
//!
//! A register of `n` qubits is a vector of `2^n` complex amplitudes. Qubit 0
//! is the least-significant bit of the basis-state index. Gate application is
//! performed in place without ever materialising the full `2^n × 2^n`
//! unitary: single- and two-qubit gates use specialised strided loops, and a
//! general k-qubit path handles everything else (CSWAP in particular).
//!
//! # Memory layout: structure of arrays
//!
//! Amplitudes are stored as two parallel `Vec<f64>` halves — all real parts
//! in [`StateVector::re_parts`], all imaginary parts in
//! [`StateVector::im_parts`] — rather than one `Vec<Complex>` of interleaved
//! pairs. Every kernel below sweeps the two halves with stride-aligned slice
//! loops (`chunks_exact_mut` + `split_at_mut`), which keeps the inner loops
//! free of bounds checks and index arithmetic so the compiler can
//! autovectorise them: each SIMD lane holds consecutive real (or imaginary)
//! parts, and the complex butterfly becomes a handful of fused
//! multiply-add sweeps over contiguous `f64` data. [`Complex`] remains the
//! interchange type at the API boundary ([`StateVector::to_amplitudes`],
//! [`StateVector::from_amplitudes`], gate matrices).

use crate::complex::Complex;
use crate::error::SimError;
use crate::gate::Gate;
use crate::linalg::CMatrix;
use rand::Rng;

/// Largest qubit count accepted by the dense-unitary kernels
/// ([`StateVector::apply_k_qubit_matrix`]):
/// scratch buffers are stack-allocated at `2^MAX_DENSE_QUBITS`.
pub const MAX_DENSE_QUBITS: usize = 6;

/// Leaf size (in amplitudes) of the fixed pairwise reduction tree used by
/// [`StateVector::inner_product`] and [`StateVector::probability_of_one`].
///
/// Registers at or below this size reduce with a plain sequential fold;
/// larger registers reduce chunk-by-chunk and combine the partial sums in
/// a balanced binary tree. The tree's shape depends **only on the register
/// size**, so every reduction over the same amplitudes returns the same
/// bits (2^12 amplitudes = 64 KiB per plane, one cache block).
pub const REDUCTION_CHUNK: usize = 1 << 12;

/// A pure quantum state on `n` qubits, stored as `2^n` amplitudes split
/// into structure-of-arrays real/imaginary halves (see the module docs).
#[derive(Debug, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        StateVector {
            num_qubits: self.num_qubits,
            re: self.re.clone(),
            im: self.im.clone(),
        }
    }

    /// Copies `source` into `self`, reusing the existing amplitude buffers
    /// whenever their capacity suffices, so a loop that restarts from one
    /// state allocates nothing per iteration.
    fn clone_from(&mut self, source: &Self) {
        self.num_qubits = source.num_qubits;
        self.re.clone_from(&source.re);
        self.im.clone_from(&source.im);
    }
}

impl StateVector {
    /// Creates the all-zeros state |0…0⟩ on `num_qubits` qubits.
    ///
    /// # Panics
    /// Panics if `num_qubits` is 0 or larger than 26 (the simulator refuses
    /// to allocate more than a gibi-amplitude register).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            (1..=26).contains(&num_qubits),
            "unsupported qubit count: {num_qubits}"
        );
        let dim = 1usize << num_qubits;
        let mut re = vec![0.0; dim];
        re[0] = 1.0;
        StateVector {
            num_qubits,
            re,
            im: vec![0.0; dim],
        }
    }

    /// Creates a state from raw amplitudes.
    ///
    /// The length must be a power of two and the vector must be normalised
    /// to within `1e-6`.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Result<Self, SimError> {
        let len = amplitudes.len();
        if len < 2 || !len.is_power_of_two() {
            return Err(SimError::InvalidState(format!(
                "amplitude vector length {len} is not a power of two >= 2"
            )));
        }
        let norm: f64 = amplitudes.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(SimError::InvalidState(format!(
                "amplitude vector is not normalised (norm² = {norm})"
            )));
        }
        Ok(StateVector {
            num_qubits: len.trailing_zeros() as usize,
            re: amplitudes.iter().map(|a| a.re).collect(),
            im: amplitudes.iter().map(|a| a.im).collect(),
        })
    }

    /// Creates a basis state |index⟩ on `num_qubits` qubits.
    pub fn basis_state(num_qubits: usize, index: usize) -> Result<Self, SimError> {
        if index >= (1 << num_qubits) {
            return Err(SimError::InvalidState(format!(
                "basis index {index} out of range for {num_qubits} qubits"
            )));
        }
        let mut sv = StateVector::zero_state(num_qubits);
        sv.re[0] = 0.0;
        sv.re[index] = 1.0;
        Ok(sv)
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension of the state (2^n).
    pub fn dim(&self) -> usize {
        self.re.len()
    }

    /// The real parts of the amplitudes, in basis-state order.
    pub fn re_parts(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary parts of the amplitudes, in basis-state order.
    pub fn im_parts(&self) -> &[f64] {
        &self.im
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    /// Panics if `index >= self.dim()`.
    pub fn amplitude(&self, index: usize) -> Complex {
        Complex::new(self.re[index], self.im[index])
    }

    /// Materialises the amplitudes as one `Vec<Complex>` (allocates; the
    /// statevector itself stores split re/im halves — see the module docs).
    pub fn to_amplitudes(&self) -> Vec<Complex> {
        self.re
            .iter()
            .zip(self.im.iter())
            .map(|(&r, &i)| Complex::new(r, i))
            .collect()
    }

    /// Resets the register to |0…0⟩ in place, without reallocating.
    pub fn reset_zero(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[0] = 1.0;
    }

    /// The squared norm of the state (should always be ≈ 1).
    pub fn norm_sqr(&self) -> f64 {
        let mut acc = 0.0;
        for (&r, &i) in self.re.iter().zip(self.im.iter()) {
            acc += r * r + i * i;
        }
        acc
    }

    /// Renormalises the state (useful after noisy trajectory jumps).
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            for r in &mut self.re {
                *r /= n;
            }
            for i in &mut self.im {
                *i /= n;
            }
        }
    }

    /// Inner product ⟨self|other⟩.
    ///
    /// Registers larger than [`REDUCTION_CHUNK`] amplitudes sum through a
    /// fixed pairwise tree (leaf folds combined by balanced halving) whose
    /// shape is a pure function of the register size.
    pub fn inner_product(&self, other: &StateVector) -> Result<Complex, SimError> {
        if self.num_qubits != other.num_qubits {
            return Err(SimError::DimensionMismatch {
                expected: self.num_qubits,
                found: other.num_qubits,
            });
        }
        Ok(inner_product_tree(&self.re, &self.im, &other.re, &other.im))
    }

    /// State fidelity |⟨self|other⟩|² between two pure states.
    pub fn fidelity(&self, other: &StateVector) -> Result<f64, SimError> {
        Ok(self.inner_product(other)?.norm_sqr())
    }

    /// Tensor product `self ⊗ other`; `other`'s qubits become the new
    /// low-order qubits.
    pub fn tensor(&self, other: &StateVector) -> StateVector {
        let dim = self.dim() * other.dim();
        let mut re = vec![0.0; dim];
        let mut im = vec![0.0; dim];
        for i in 0..self.dim() {
            let (ar, ai) = (self.re[i], self.im[i]);
            if ar == 0.0 && ai == 0.0 {
                continue;
            }
            let base = i * other.dim();
            for j in 0..other.dim() {
                let (br, bi) = (other.re[j], other.im[j]);
                re[base + j] = ar * br - ai * bi;
                im[base + j] = ar * bi + ai * br;
            }
        }
        StateVector {
            num_qubits: self.num_qubits + other.num_qubits,
            re,
            im,
        }
    }

    /// Checks that every listed qubit is in range and no qubit repeats.
    fn validate_qubits(&self, qubits: &[usize]) -> Result<(), SimError> {
        for &q in qubits {
            if q >= self.num_qubits {
                return Err(SimError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        for i in 0..qubits.len() {
            for j in (i + 1)..qubits.len() {
                if qubits[i] == qubits[j] {
                    return Err(SimError::DuplicateQubit(qubits[i]));
                }
            }
        }
        Ok(())
    }

    /// Applies a gate in place.
    ///
    /// # Errors
    /// Returns an error if any operand qubit is out of range or duplicated.
    pub fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        let qubits = gate.qubits();
        self.validate_qubits(&qubits)?;
        if !self.apply_gate_specialized(gate) {
            self.apply_unitary_unchecked(&qubits, gate.matrix().as_slice());
        }
        Ok(())
    }

    /// Applies a gate that has a multiply-free diagonal/permutation
    /// specialisation, skipping operand validation and without touching
    /// the heap (no operand-vector or matrix construction). Returns `false`
    /// for dense gates, which need their matrix built.
    ///
    /// Callers guarantee the operands are distinct and in range — this is
    /// the replay path of circuits whose gates were validated at bind time.
    fn apply_gate_specialized(&mut self, gate: &Gate) -> bool {
        match gate {
            Gate::I(_) => {}
            Gate::X(q) => self.apply_x(*q),
            Gate::Z(q) => self.apply_phase_flip(*q, Complex::from_real(-1.0)),
            Gate::S(q) => self.apply_phase_flip(*q, Complex::I),
            Gate::Sdg(q) => self.apply_phase_flip(*q, Complex::new(0.0, -1.0)),
            Gate::T(q) => self.apply_phase_flip(*q, Complex::cis(std::f64::consts::FRAC_PI_4)),
            Gate::Tdg(q) => self.apply_phase_flip(*q, Complex::cis(-std::f64::consts::FRAC_PI_4)),
            Gate::Swap(a, b) => self.apply_swap(*a, *b),
            Gate::Cnot { control, target } => self.apply_cnot(*control, *target),
            Gate::Cz { control, target } => self.apply_cz(*control, *target),
            Gate::CSwap { control, a, b } => self.apply_cswap(*control, *a, *b),
            _ => return false,
        }
        crate::profile::specialized_sweep(gate, self.dim() as u64);
        true
    }

    /// Applies a sequence of gates in order.
    pub fn apply_gates(&mut self, gates: &[Gate]) -> Result<(), SimError> {
        for g in gates {
            self.apply_gate(g)?;
        }
        Ok(())
    }

    fn apply_x(&mut self, q: usize) {
        let bit = 1usize << q;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(bit << 1)
            .zip(self.im.chunks_exact_mut(bit << 1))
        {
            let (r0, r1) = rc.split_at_mut(bit);
            let (i0, i1) = ic.split_at_mut(bit);
            r0.swap_with_slice(r1);
            i0.swap_with_slice(i1);
        }
    }

    fn apply_phase_flip(&mut self, q: usize, phase: Complex) {
        // Diagonal: multiply the upper (bit-set) half of each block.
        let bit = 1usize << q;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(bit << 1)
            .zip(self.im.chunks_exact_mut(bit << 1))
        {
            for (r, i) in rc[bit..].iter_mut().zip(ic[bit..].iter_mut()) {
                let (ar, ai) = (*r, *i);
                *r = ar * phase.re - ai * phase.im;
                *i = ar * phase.im + ai * phase.re;
            }
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        // Permutation: exchange the |hi=1,lo=0⟩ / |hi=0,lo=1⟩ slice strips.
        let s_lo = 1usize << a.min(b);
        let s_hi = 1usize << a.max(b);
        for arr in [&mut self.re, &mut self.im] {
            for chunk in arr.chunks_exact_mut(s_hi << 1) {
                let (h0, h1) = chunk.split_at_mut(s_hi);
                for (sub0, sub1) in h0
                    .chunks_exact_mut(s_lo << 1)
                    .zip(h1.chunks_exact_mut(s_lo << 1))
                {
                    sub0[s_lo..].swap_with_slice(&mut sub1[..s_lo]);
                }
            }
        }
    }

    fn apply_cnot(&mut self, control: usize, target: usize) {
        let cb = 1usize << control;
        let tb = 1usize << target;
        for arr in [&mut self.re, &mut self.im] {
            if control > target {
                // Upper (control=1) halves of each control block flip the
                // target strips in place.
                for chunk in arr.chunks_exact_mut(cb << 1) {
                    for sub in chunk[cb..].chunks_exact_mut(tb << 1) {
                        let (t0, t1) = sub.split_at_mut(tb);
                        t0.swap_with_slice(t1);
                    }
                }
            } else {
                // Target above control: swap the control=1 strips across the
                // two target halves of each target block.
                for chunk in arr.chunks_exact_mut(tb << 1) {
                    let (t0, t1) = chunk.split_at_mut(tb);
                    for (s0, s1) in t0
                        .chunks_exact_mut(cb << 1)
                        .zip(t1.chunks_exact_mut(cb << 1))
                    {
                        s0[cb..].swap_with_slice(&mut s1[cb..]);
                    }
                }
            }
        }
    }

    fn apply_cz(&mut self, control: usize, target: usize) {
        // Diagonal: flip the sign where both bits are set. No multiplies.
        let lo = 1usize << control.min(target);
        let hi = 1usize << control.max(target);
        for (rc, ic) in self
            .re
            .chunks_exact_mut(hi << 1)
            .zip(self.im.chunks_exact_mut(hi << 1))
        {
            // lo < hi ⇒ the upper half is a whole number of lo-strips.
            for (rs, is) in rc[hi..]
                .chunks_exact_mut(lo << 1)
                .zip(ic[hi..].chunks_exact_mut(lo << 1))
            {
                for (r, i) in rs[lo..].iter_mut().zip(is[lo..].iter_mut()) {
                    *r = -*r;
                    *i = -*i;
                }
            }
        }
    }

    fn apply_cswap(&mut self, control: usize, a: usize, b: usize) {
        // Permutation: swap the |a=1,b=0⟩ / |a=0,b=1⟩ amplitudes where the
        // control bit is set. No multiplies: enumerate the free-bit bases
        // directly and exchange one pair per base.
        let cb = 1usize << control;
        let ab = 1usize << a;
        let bb = 1usize << b;
        let mut pos = [control, a, b];
        pos.sort_unstable();
        for i in 0..self.dim() >> 3 {
            let mut base = i;
            for &p in &pos {
                base = Self::insert_zero_bit(base, p);
            }
            let j0 = base | cb | ab;
            let j1 = base | cb | bb;
            self.re.swap(j0, j1);
            self.im.swap(j0, j1);
        }
    }

    /// Applies an arbitrary 2×2 matrix to one qubit.
    pub fn apply_single_qubit_matrix(&mut self, q: usize, m: &CMatrix) {
        debug_assert_eq!(m.rows(), 2);
        self.apply_unitary1(q, m.as_slice());
    }

    /// Applies an arbitrary 2×2 matrix (given as a flat `[m00, m01, m10,
    /// m11]` array) to qubit `q` of a state whose qubits *above* `q` are all
    /// still |0⟩, sweeping only the `2^(q+1)` active amplitudes instead of
    /// the whole register.
    ///
    /// This is the product-state preparation kernel: building an unentangled
    /// state qubit-by-qubit (e.g. a data-register encoding) costs
    /// `Σ 2^(q+1)` butterfly updates instead of `gates · 2^n`, and taking
    /// the entries as a stack array keeps the per-gate cost heap-free. Each
    /// active amplitude goes through the exact arithmetic of the full sweep
    /// ([`StateVector::apply_single_qubit_matrix`]), so nonzero amplitudes
    /// are bit-identical to full-register application; the only difference
    /// is that amplitudes in the untouched all-zero region keep their exact
    /// `+0.0` representation instead of being rewritten as signed zeros.
    ///
    /// # Contract
    /// The caller promises every qubit `> q` is exactly |0⟩ (all amplitudes
    /// with any higher bit set are zero). Violating it silently computes the
    /// wrong state — the promise is only debug-asserted.
    ///
    /// # Errors
    /// Returns [`SimError::QubitOutOfRange`] when `q` is outside the
    /// register.
    pub fn apply_active_2x2(&mut self, q: usize, m: &[Complex; 4]) -> Result<(), SimError> {
        if q >= self.num_qubits() {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits(),
            });
        }
        let step = 1usize << q;
        debug_assert!(
            self.re[step << 1..].iter().all(|&r| r == 0.0)
                && self.im[step << 1..].iter().all(|&i| i == 0.0),
            "apply_active_2x2: qubits above {q} are not |0⟩"
        );
        // The first (and only active) chunk of the apply_unitary1 sweep.
        let (r0, r1) = self.re[..step << 1].split_at_mut(step);
        let (i0, i1) = self.im[..step << 1].split_at_mut(step);
        butterfly1(m, r0, i0, r1, i1);
        Ok(())
    }

    /// [`StateVector::apply_active_2x2`] taking the matrix as a
    /// [`CMatrix`]; see there for the active-prefix contract.
    ///
    /// # Errors
    /// Returns [`SimError::QubitOutOfRange`] when `q` is outside the
    /// register.
    pub fn apply_single_qubit_matrix_active(
        &mut self,
        q: usize,
        m: &CMatrix,
    ) -> Result<(), SimError> {
        debug_assert_eq!(m.rows(), 2);
        let s = m.as_slice();
        self.apply_active_2x2(q, &[s[0], s[1], s[2], s[3]])
    }

    /// Applies a 2×2 matrix to a *fresh* qubit `q` — one whose own
    /// amplitude (and every higher qubit's) is still exactly |0⟩, so only
    /// the first `2^q` amplitudes can be nonzero. The |1⟩ partner of every
    /// active amplitude is then exactly `+0.0`, and the
    /// [`StateVector::apply_active_2x2`] butterfly degenerates to the
    /// matrix's first column: `amp₁ = m₁₀·amp` and `amp₀ = m₀₀·amp`.
    ///
    /// This kernel computes exactly those surviving terms (the same
    /// products, in the same order, as the dense sweep), so every nonzero
    /// output amplitude is bit-identical to `apply_active_2x2`; only the
    /// signed-zero pollution of the skipped `m·0` products differs. It is
    /// the per-qubit step of product-state preparation at a quarter of the
    /// dense butterfly's arithmetic.
    ///
    /// # Contract
    /// The caller promises every qubit `>= q` is exactly |0⟩ (only
    /// amplitudes below `2^q` may be nonzero). Violating it silently
    /// computes the wrong state — the promise is only debug-asserted.
    ///
    /// # Errors
    /// Returns [`SimError::QubitOutOfRange`] when `q` is outside the
    /// register.
    pub fn apply_fresh_2x2(&mut self, q: usize, m: &[Complex; 4]) -> Result<(), SimError> {
        if q >= self.num_qubits() {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits(),
            });
        }
        let step = 1usize << q;
        debug_assert!(
            self.re[step..].iter().all(|&r| r == 0.0) && self.im[step..].iter().all(|&i| i == 0.0),
            "apply_fresh_2x2: qubits at and above {q} are not |0⟩"
        );
        let (m00, m10) = (m[0], m[2]);
        let (r0, r1) = self.re[..step << 1].split_at_mut(step);
        let (i0, i1) = self.im[..step << 1].split_at_mut(step);
        for (((r0, i0), r1), i1) in r0
            .iter_mut()
            .zip(i0.iter_mut())
            .zip(r1.iter_mut())
            .zip(i1.iter_mut())
        {
            let (ar, ai) = (*r0, *i0);
            *r1 = m10.re * ar - m10.im * ai;
            *i1 = m10.re * ai + m10.im * ar;
            *r0 = m00.re * ar - m00.im * ai;
            *i0 = m00.re * ai + m00.im * ar;
        }
        Ok(())
    }

    /// Applies the diagonal matrix `diag(d0, d1)` to qubit `q` of a state
    /// whose qubits *above* `q` are all still |0⟩, sweeping only the
    /// `2^(q+1)` active amplitudes.
    ///
    /// A diagonal gate scales each amplitude by one entry; the dense
    /// [`StateVector::apply_active_2x2`] butterfly would additionally
    /// multiply every amplitude by the exact-zero off-diagonal entries.
    /// This kernel computes only the surviving diagonal products — the
    /// same arithmetic, in the same order, as the dense sweep's nonzero
    /// terms — so every nonzero output amplitude is bit-identical to the
    /// butterfly; only the signed-zero pollution of the skipped `0·amp`
    /// products differs. It is the RZ step of product-state preparation at
    /// a quarter of the dense butterfly's arithmetic.
    ///
    /// # Contract
    /// The caller promises every qubit `> q` is exactly |0⟩ (all
    /// amplitudes with any higher bit set are zero). Violating it silently
    /// computes the wrong state — the promise is only debug-asserted.
    ///
    /// # Errors
    /// Returns [`SimError::QubitOutOfRange`] when `q` is outside the
    /// register.
    pub fn apply_active_diag(
        &mut self,
        q: usize,
        d0: Complex,
        d1: Complex,
    ) -> Result<(), SimError> {
        if q >= self.num_qubits() {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits(),
            });
        }
        let step = 1usize << q;
        debug_assert!(
            self.re[step << 1..].iter().all(|&r| r == 0.0)
                && self.im[step << 1..].iter().all(|&i| i == 0.0),
            "apply_active_diag: qubits above {q} are not |0⟩"
        );
        let (r0, r1) = self.re[..step << 1].split_at_mut(step);
        let (i0, i1) = self.im[..step << 1].split_at_mut(step);
        for (((r0, i0), r1), i1) in r0
            .iter_mut()
            .zip(i0.iter_mut())
            .zip(r1.iter_mut())
            .zip(i1.iter_mut())
        {
            let (a0r, a0i) = (*r0, *i0);
            let (a1r, a1i) = (*r1, *i1);
            *r0 = d0.re * a0r - d0.im * a0i;
            *i0 = d0.re * a0i + d0.im * a0r;
            *r1 = d1.re * a1r - d1.im * a1i;
            *i1 = d1.re * a1i + d1.im * a1r;
        }
        Ok(())
    }

    /// Applies an arbitrary 4×4 matrix to two qubits (`q0` = least-significant
    /// operand of the matrix).
    pub fn apply_two_qubit_matrix(&mut self, q0: usize, q1: usize, m: &CMatrix) {
        debug_assert_eq!(m.rows(), 4);
        self.apply_unitary2(q0, q1, m.as_slice());
    }

    /// Applies an arbitrary 2^k × 2^k matrix to `k` qubits (first listed qubit
    /// = least-significant bit of the matrix basis).
    ///
    /// # Errors
    /// Returns [`SimError::QubitOutOfRange`] / [`SimError::DuplicateQubit`]
    /// for invalid operand lists (rather than silently misindexing the
    /// register), [`SimError::InvalidState`] when the matrix shape does not
    /// match the qubit count, and [`SimError::Unsupported`] beyond
    /// [`MAX_DENSE_QUBITS`] qubits.
    pub fn apply_k_qubit_matrix(&mut self, qubits: &[usize], m: &CMatrix) -> Result<(), SimError> {
        let k = qubits.len();
        self.validate_qubits(qubits)?;
        if k > MAX_DENSE_QUBITS {
            return Err(SimError::Unsupported(format!(
                "dense unitary application supports at most {MAX_DENSE_QUBITS} qubits, got {k}"
            )));
        }
        if m.rows() != (1 << k) || m.cols() != (1 << k) {
            return Err(SimError::InvalidState(format!(
                "matrix shape {}x{} does not act on {k} qubits",
                m.rows(),
                m.cols()
            )));
        }
        self.apply_unitary_unchecked(qubits, m.as_slice());
        Ok(())
    }

    /// Applies a dense 2^k × 2^k unitary (flat row-major slice) to the listed
    /// qubits without validating operands: callers guarantee distinct,
    /// in-range qubits, `k <= MAX_DENSE_QUBITS` and a matching matrix size.
    /// This is the shared kernel behind gate application.
    pub(crate) fn apply_unitary_unchecked(&mut self, qubits: &[usize], m: &[Complex]) {
        if !qubits.is_empty() {
            crate::profile::dense_sweep(self.dim() as u64);
        }
        match qubits.len() {
            0 => {}
            1 => self.apply_unitary1(qubits[0], m),
            2 => self.apply_unitary2(qubits[0], qubits[1], m),
            _ => self.apply_unitary_k(qubits, m),
        }
    }

    /// Inserts a zero bit at position `p`, spreading the higher bits up.
    #[inline(always)]
    fn insert_zero_bit(index: usize, p: usize) -> usize {
        let low = index & ((1usize << p) - 1);
        ((index >> p) << (p + 1)) | low
    }

    fn apply_unitary1(&mut self, q: usize, m: &[Complex]) {
        debug_assert_eq!(m.len(), 4);
        let step = 1usize << q;
        let mm = [m[0], m[1], m[2], m[3]];
        // Contiguous slice halves per block: no per-index bit twiddling, no
        // bounds checks, and the inner zip vectorises over the SoA halves.
        for (rc, ic) in self
            .re
            .chunks_exact_mut(step << 1)
            .zip(self.im.chunks_exact_mut(step << 1))
        {
            let (r0, r1) = rc.split_at_mut(step);
            let (i0, i1) = ic.split_at_mut(step);
            butterfly1(&mm, r0, i0, r1, i1);
        }
    }

    /// Conjugates a 4×4 matrix into the natural (hi, lo) slice layout: the
    /// matrix basis puts `q0` on bit 0, so when `q0` is the *higher* wire
    /// the basis bits are swapped once up front and the sweep can use the
    /// same slice layout throughout.
    fn conjugate_two_qubit(q0: usize, lo: usize, m: &[Complex]) -> [Complex; 16] {
        let perm = |x: usize| -> usize {
            if q0 == lo {
                x
            } else {
                ((x & 1) << 1) | (x >> 1)
            }
        };
        let mut mm = [Complex::ZERO; 16];
        for (r, row) in mm.chunks_exact_mut(4).enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = m[perm(r) * 4 + perm(c)];
            }
        }
        mm
    }

    fn apply_unitary2(&mut self, q0: usize, q1: usize, m: &[Complex]) {
        debug_assert_eq!(m.len(), 16);
        let (lo, hi) = (q0.min(q1), q0.max(q1));
        let s_lo = 1usize << lo;
        let s_hi = 1usize << hi;
        let mm = Self::conjugate_two_qubit(q0, lo, m);
        for (rc, ic) in self
            .re
            .chunks_exact_mut(s_hi << 1)
            .zip(self.im.chunks_exact_mut(s_hi << 1))
        {
            let (rh0, rh1) = rc.split_at_mut(s_hi);
            let (ih0, ih1) = ic.split_at_mut(s_hi);
            for (((rs0, is0), rs1), is1) in rh0
                .chunks_exact_mut(s_lo << 1)
                .zip(ih0.chunks_exact_mut(s_lo << 1))
                .zip(rh1.chunks_exact_mut(s_lo << 1))
                .zip(ih1.chunks_exact_mut(s_lo << 1))
            {
                let (r0, r1) = rs0.split_at_mut(s_lo);
                let (i0, i1) = is0.split_at_mut(s_lo);
                let (r2, r3) = rs1.split_at_mut(s_lo);
                let (i2, i3) = is1.split_at_mut(s_lo);
                quartet(&mm, r0, i0, r1, i1, r2, i2, r3, i3);
            }
        }
    }

    fn apply_unitary_k(&mut self, qubits: &[usize], m: &[Complex]) {
        let k = qubits.len();
        debug_assert!(k <= MAX_DENSE_QUBITS);
        let size = 1usize << k;
        debug_assert_eq!(m.len(), size * size);
        // Offset of each matrix basis state within a block: the OR of the
        // qubit masks selected by the basis-index bits.
        let mut offs = [0usize; 1 << MAX_DENSE_QUBITS];
        for (sub, off) in offs[..size].iter_mut().enumerate() {
            let mut o = 0usize;
            for (bit, &q) in qubits.iter().enumerate() {
                if sub & (1 << bit) != 0 {
                    o |= 1 << q;
                }
            }
            *off = o;
        }
        // Ascending bit positions for zero-insertion base enumeration.
        let mut pos = [0usize; MAX_DENSE_QUBITS];
        pos[..k].copy_from_slice(qubits);
        pos[..k].sort_unstable();
        let mut s_re = [0.0f64; 1 << MAX_DENSE_QUBITS];
        let mut s_im = [0.0f64; 1 << MAX_DENSE_QUBITS];
        for i in 0..self.dim() >> k {
            let mut base = i;
            for &p in &pos[..k] {
                base = Self::insert_zero_bit(base, p);
            }
            for (sub, &off) in offs[..size].iter().enumerate() {
                s_re[sub] = self.re[base | off];
                s_im[sub] = self.im[base | off];
            }
            for (row, &off) in offs[..size].iter().enumerate() {
                let (acc_re, acc_im) = krow(
                    &m[row * size..(row + 1) * size],
                    &s_re[..size],
                    &s_im[..size],
                );
                self.re[base | off] = acc_re;
                self.im[base | off] = acc_im;
            }
        }
    }

    /// Probability of measuring qubit `q` in state |1⟩.
    ///
    /// Like [`StateVector::inner_product`], registers above
    /// [`REDUCTION_CHUNK`] amplitudes reduce through the fixed pairwise
    /// tree.
    pub fn probability_of_one(&self, q: usize) -> Result<f64, SimError> {
        if q >= self.num_qubits {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            });
        }
        let bit = 1usize << q;
        Ok(probability_tree(&self.re, &self.im, 0, bit))
    }

    /// Expectation value of Pauli-Z on qubit `q`: `P(0) - P(1)`.
    pub fn expectation_z(&self, q: usize) -> Result<f64, SimError> {
        let p1 = self.probability_of_one(q)?;
        Ok(1.0 - 2.0 * p1)
    }

    /// Full probability distribution over the 2^n basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(self.im.iter())
            .map(|(&r, &i)| r * r + i * i)
            .collect()
    }

    /// Samples a full-register measurement outcome (basis-state index)
    /// without collapsing the state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for i in 0..self.dim() {
            acc += self.re[i] * self.re[i] + self.im[i] * self.im[i];
            if r < acc {
                return i;
            }
        }
        self.dim() - 1
    }

    /// Samples `shots` measurements of a single qubit and returns the number
    /// of |1⟩ outcomes. The state is not collapsed between shots (each shot
    /// is an independent preparation, matching how shot counts are used on
    /// real hardware).
    pub fn sample_qubit<R: Rng + ?Sized>(
        &self,
        q: usize,
        shots: usize,
        rng: &mut R,
    ) -> Result<usize, SimError> {
        let p1 = self.probability_of_one(q)?;
        let mut ones = 0;
        for _ in 0..shots {
            if rng.gen::<f64>() < p1 {
                ones += 1;
            }
        }
        Ok(ones)
    }

    /// Measures qubit `q`, collapsing the state, and returns the outcome.
    pub fn measure_qubit<R: Rng + ?Sized>(
        &mut self,
        q: usize,
        rng: &mut R,
    ) -> Result<bool, SimError> {
        let p1 = self.probability_of_one(q)?;
        let outcome = rng.gen::<f64>() < p1;
        self.collapse_qubit(q, outcome)?;
        Ok(outcome)
    }

    /// Projects qubit `q` onto the given outcome and renormalises.
    pub fn collapse_qubit(&mut self, q: usize, outcome: bool) -> Result<(), SimError> {
        if q >= self.num_qubits {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            });
        }
        let bit = 1usize << q;
        for i in 0..self.dim() {
            let is_one = i & bit != 0;
            if is_one != outcome {
                self.re[i] = 0.0;
                self.im[i] = 0.0;
            }
        }
        self.renormalize();
        Ok(())
    }

    /// Resets qubit `q` to |0⟩ by measuring it and applying X if needed.
    pub fn reset_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Result<(), SimError> {
        let outcome = self.measure_qubit(q, rng)?;
        if outcome {
            self.apply_x(q);
        }
        Ok(())
    }

    /// Reduced single-qubit Bloch vector (⟨X⟩, ⟨Y⟩, ⟨Z⟩) of qubit `q`.
    pub fn bloch_vector(&self, q: usize) -> Result<[f64; 3], SimError> {
        if q >= self.num_qubits {
            return Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            });
        }
        let bit = 1usize << q;
        // Reduced density matrix entries rho00, rho01 (rho10 = conj, rho11 = 1-rho00).
        let mut rho00 = 0.0;
        let mut rho01_re = 0.0;
        let mut rho01_im = 0.0;
        for i in 0..self.dim() {
            if i & bit == 0 {
                let (a0r, a0i) = (self.re[i], self.im[i]);
                let (a1r, a1i) = (self.re[i | bit], self.im[i | bit]);
                rho00 += a0r * a0r + a0i * a0i;
                // a0 * conj(a1)
                rho01_re += a0r * a1r + a0i * a1i;
                rho01_im += a0i * a1r - a0r * a1i;
            }
        }
        let x = 2.0 * rho01_re;
        let y = -2.0 * rho01_im;
        let z = 2.0 * rho00 - 1.0;
        Ok([x, y, z])
    }
}

/// The shared single-qubit butterfly sweep over SoA slice halves: for each
/// lane `i`, `(a0, a1) ← (m00·a0 + m01·a1, m10·a0 + m11·a1)`, with the
/// complex products expanded into the exact expression shape used
/// everywhere (`re·re − im·im` / `re·im + im·re`, products summed left to
/// right).
fn butterfly1(
    m: &[Complex; 4],
    re0: &mut [f64],
    im0: &mut [f64],
    re1: &mut [f64],
    im1: &mut [f64],
) {
    let [m00, m01, m10, m11] = *m;
    for (((r0, i0), r1), i1) in re0
        .iter_mut()
        .zip(im0.iter_mut())
        .zip(re1.iter_mut())
        .zip(im1.iter_mut())
    {
        let (a0r, a0i) = (*r0, *i0);
        let (a1r, a1i) = (*r1, *i1);
        *r0 = (m00.re * a0r - m00.im * a0i) + (m01.re * a1r - m01.im * a1i);
        *i0 = (m00.re * a0i + m00.im * a0r) + (m01.re * a1i + m01.im * a1r);
        *r1 = (m10.re * a0r - m10.im * a0i) + (m11.re * a1r - m11.im * a1i);
        *i1 = (m10.re * a0i + m10.im * a0r) + (m11.re * a1i + m11.im * a1r);
    }
}

/// One row of a 4-term complex matrix·vector product, products summed
/// left to right (the fold shape shared by every 4×4 kernel).
#[inline(always)]
fn row4(m: &[Complex], ar: &[f64; 4], ai: &[f64; 4]) -> (f64, f64) {
    let mut sr = m[0].re * ar[0] - m[0].im * ai[0];
    let mut si = m[0].re * ai[0] + m[0].im * ar[0];
    for c in 1..4 {
        sr += m[c].re * ar[c] - m[c].im * ai[c];
        si += m[c].re * ai[c] + m[c].im * ar[c];
    }
    (sr, si)
}

/// The shared two-qubit quartet sweep over SoA slice strips (`mm` already
/// conjugated into (hi, lo) layout).
#[allow(clippy::too_many_arguments)]
fn quartet(
    mm: &[Complex; 16],
    r0: &mut [f64],
    i0: &mut [f64],
    r1: &mut [f64],
    i1: &mut [f64],
    r2: &mut [f64],
    i2: &mut [f64],
    r3: &mut [f64],
    i3: &mut [f64],
) {
    let n = r0.len();
    assert!(
        i0.len() == n
            && r1.len() == n
            && i1.len() == n
            && r2.len() == n
            && i2.len() == n
            && r3.len() == n
            && i3.len() == n
    );
    for idx in 0..n {
        let ar = [r0[idx], r1[idx], r2[idx], r3[idx]];
        let ai = [i0[idx], i1[idx], i2[idx], i3[idx]];
        let (v0r, v0i) = row4(&mm[0..4], &ar, &ai);
        let (v1r, v1i) = row4(&mm[4..8], &ar, &ai);
        let (v2r, v2i) = row4(&mm[8..12], &ar, &ai);
        let (v3r, v3i) = row4(&mm[12..16], &ar, &ai);
        r0[idx] = v0r;
        i0[idx] = v0i;
        r1[idx] = v1r;
        i1[idx] = v1i;
        r2[idx] = v2r;
        i2[idx] = v2i;
        r3[idx] = v3r;
        i3[idx] = v3i;
    }
}

/// One row of a 2^k-term complex matrix·vector product with a zero-seeded
/// accumulator.
#[inline(always)]
fn krow(mrow: &[Complex], s_re: &[f64], s_im: &[f64]) -> (f64, f64) {
    let mut acc_re = 0.0;
    let mut acc_im = 0.0;
    for (m, (&sr, &si)) in mrow.iter().zip(s_re.iter().zip(s_im.iter())) {
        acc_re += m.re * sr - m.im * si;
        acc_im += m.re * si + m.im * sr;
    }
    (acc_re, acc_im)
}

/// One leaf of the inner-product reduction tree over SoA halves, on
/// registers up to [`REDUCTION_CHUNK`]. The per-lane term is `conj(a)·b`
/// expanded as `(ar·br + ai·bi, ar·bi − ai·br)`.
///
/// The fold runs four independent accumulator lanes (lane `j` sums terms
/// `j, j+4, j+8, …`; any tail shorter than four joins lane 0) combined
/// pairwise at the end — a fixed shape, so results are deterministic for
/// a given length, and the lanes break the loop-carried dependency chain
/// a single running sum would serialize every `add` behind.
fn inner_product_leaf(a_re: &[f64], a_im: &[f64], b_re: &[f64], b_im: &[f64]) -> Complex {
    let n = a_re.len();
    assert!(a_im.len() == n && b_re.len() == n && b_im.len() == n);
    let mut sr = [0.0f64; 4];
    let mut si = [0.0f64; 4];
    for (((ar, ai), br), bi) in a_re
        .chunks_exact(4)
        .zip(a_im.chunks_exact(4))
        .zip(b_re.chunks_exact(4))
        .zip(b_im.chunks_exact(4))
    {
        for j in 0..4 {
            sr[j] += ar[j] * br[j] + ai[j] * bi[j];
            si[j] += ar[j] * bi[j] - ai[j] * br[j];
        }
    }
    let tail = n / 4 * 4;
    for i in tail..n {
        sr[0] += a_re[i] * b_re[i] + a_im[i] * b_im[i];
        si[0] += a_re[i] * b_im[i] - a_im[i] * b_re[i];
    }
    Complex::new(
        (sr[0] + sr[1]) + (sr[2] + sr[3]),
        (si[0] + si[1]) + (si[2] + si[3]),
    )
}

/// Fixed-shape pairwise reduction of ⟨a|b⟩: balanced halving down to
/// [`REDUCTION_CHUNK`]-sized leaves. Register dimensions are powers of
/// two, so the tree is perfect: its result equals combining the ordered
/// leaf sums by balanced halving, whichever way the leaves are visited.
pub(crate) fn inner_product_tree(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
) -> Complex {
    if a_re.len() <= REDUCTION_CHUNK {
        return inner_product_leaf(a_re, a_im, b_re, b_im);
    }
    let mid = a_re.len() / 2;
    inner_product_tree(&a_re[..mid], &a_im[..mid], &b_re[..mid], &b_im[..mid])
        + inner_product_tree(&a_re[mid..], &a_im[mid..], &b_re[mid..], &b_im[mid..])
}

/// One leaf of the measurement-probability reduction tree over the
/// amplitudes at global indices `base..base + re.len()`: sums `|a|²` over
/// the amplitudes whose index has `bit` set, in ascending index order,
/// sweeping stride-aligned upper halves.
fn probability_leaf(re: &[f64], im: &[f64], base: usize, bit: usize) -> f64 {
    let mut acc = 0.0;
    if bit >= re.len() {
        if base & bit == 0 {
            return 0.0;
        }
        for (&r, &i) in re.iter().zip(im.iter()) {
            acc += r * r + i * i;
        }
        return acc;
    }
    for (rc, ic) in re.chunks_exact(bit << 1).zip(im.chunks_exact(bit << 1)) {
        for (&r, &i) in rc[bit..].iter().zip(ic[bit..].iter()) {
            acc += r * r + i * i;
        }
    }
    acc
}

/// Fixed-shape pairwise reduction of `P(qubit = 1)`; see
/// [`inner_product_tree`] for the shape contract.
fn probability_tree(re: &[f64], im: &[f64], base: usize, bit: usize) -> f64 {
    if re.len() <= REDUCTION_CHUNK {
        return probability_leaf(re, im, base, bit);
    }
    let mid = re.len() / 2;
    probability_tree(&re[..mid], &im[..mid], base, bit)
        + probability_tree(&re[mid..], &im[mid..], base + mid, bit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-10;

    #[test]
    fn active_prefix_application_matches_full_sweep_bit_for_bit() {
        // Build a 4-qubit product state qubit-by-qubit through the active
        // kernel and through full-register sweeps: every nonzero amplitude
        // must agree to the last bit.
        let angles = [(0.7, -0.4), (2.2, 0.9), (0.1, 1.7), (3.0, -2.1)];
        let mut fast = StateVector::zero_state(4);
        let mut full = StateVector::zero_state(4);
        for (q, &(ry, rz)) in angles.iter().enumerate() {
            let gry = Gate::Ry(q, ry);
            let grz = Gate::Rz(q, rz);
            fast.apply_single_qubit_matrix_active(q, &gry.matrix())
                .unwrap();
            fast.apply_single_qubit_matrix_active(q, &grz.matrix())
                .unwrap();
            full.apply_gate(&gry).unwrap();
            full.apply_gate(&grz).unwrap();
        }
        for (a, b) in fast.to_amplitudes().iter().zip(full.to_amplitudes().iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn active_prefix_application_rejects_out_of_range_qubits() {
        let mut sv = StateVector::zero_state(2);
        let m = Gate::Ry(0, 0.3).matrix();
        assert!(matches!(
            sv.apply_single_qubit_matrix_active(2, &m),
            Err(SimError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn soa_accessors_roundtrip() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gates(&[
            Gate::H(0),
            Gate::S(0),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
        ])
        .unwrap();
        let amps = sv.to_amplitudes();
        assert_eq!(amps.len(), 4);
        for (i, a) in amps.iter().enumerate() {
            assert_eq!(sv.amplitude(i), *a);
            assert_eq!(sv.re_parts()[i], a.re);
            assert_eq!(sv.im_parts()[i], a.im);
        }
        let rebuilt = StateVector::from_amplitudes(amps).unwrap();
        assert_eq!(rebuilt, sv);
        // reset_zero reuses the buffers and lands exactly on |0…0⟩.
        sv.reset_zero();
        assert_eq!(sv, StateVector::zero_state(2));
    }

    #[test]
    fn zero_state_is_normalised() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.dim(), 8);
        assert!((sv.norm_sqr() - 1.0).abs() < TOL);
        assert_eq!(sv.amplitude(0), Complex::ONE);
    }

    #[test]
    #[should_panic(expected = "unsupported qubit count")]
    fn zero_qubits_rejected() {
        let _ = StateVector::zero_state(0);
    }

    #[test]
    fn from_amplitudes_validates() {
        assert!(StateVector::from_amplitudes(vec![Complex::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::ONE, Complex::ONE]).is_err());
        let ok = StateVector::from_amplitudes(vec![Complex::ONE, Complex::ZERO]);
        assert!(ok.is_ok());
    }

    #[test]
    fn basis_state_sets_single_amplitude() {
        let sv = StateVector::basis_state(3, 5).unwrap();
        assert_eq!(sv.amplitude(5), Complex::ONE);
        assert!(StateVector::basis_state(2, 4).is_err());
    }

    #[test]
    fn x_gate_flips_qubit() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::X(1)).unwrap();
        assert_eq!(sv.amplitude(2), Complex::ONE);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::H(0)).unwrap();
        assert!((sv.probability_of_one(0).unwrap() - 0.5).abs() < TOL);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::H(0)).unwrap();
        sv.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < TOL);
        assert!((p[3] - 0.5).abs() < TOL);
        assert!(p[1].abs() < TOL && p[2].abs() < TOL);
    }

    #[test]
    fn ry_angle_encodes_expectation() {
        // RY(2 asin(sqrt(x))) |0> has P(1) = x — the QuClassi encoding rule.
        let x: f64 = 0.3;
        let theta = 2.0 * x.sqrt().asin();
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::Ry(0, theta)).unwrap();
        assert!((sv.probability_of_one(0).unwrap() - x).abs() < TOL);
    }

    #[test]
    fn swap_gate_exchanges_qubits() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::X(0)).unwrap();
        sv.apply_gate(&Gate::Swap(0, 1)).unwrap();
        assert_eq!(sv.amplitude(2), Complex::ONE);
    }

    #[test]
    fn cswap_conditioned_on_control() {
        // Prepare |control=1⟩|a=1⟩|b=0⟩ then CSWAP: a and b exchange.
        let mut sv = StateVector::zero_state(3);
        sv.apply_gate(&Gate::X(2)).unwrap(); // control
        sv.apply_gate(&Gate::X(0)).unwrap(); // a
        sv.apply_gate(&Gate::CSwap {
            control: 2,
            a: 0,
            b: 1,
        })
        .unwrap();
        // Expect |control=1, b=1, a=0⟩ = index 4 + 2 = 6.
        assert!((sv.amplitude(6).norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn gate_application_matches_full_matrix_kron() {
        // Apply RY(0.7) to qubit 1 of a 3-qubit random-ish state and compare
        // against the explicit I ⊗ RY ⊗ I construction.
        let mut sv = StateVector::zero_state(3);
        sv.apply_gates(&[Gate::H(0), Gate::H(1), Gate::H(2), Gate::T(1), Gate::S(2)])
            .unwrap();
        let mut by_gate = sv.clone();
        by_gate.apply_gate(&Gate::Ry(1, 0.7)).unwrap();

        let full = CMatrix::identity(2)
            .kron(&crate::gate::matrices::ry(0.7))
            .kron(&CMatrix::identity(2));
        let expected = full.matvec(&sv.to_amplitudes());
        for (a, b) in by_gate.to_amplitudes().iter().zip(expected.iter()) {
            assert!(a.approx_eq(*b, 1e-9));
        }
    }

    #[test]
    fn two_qubit_gate_matches_general_path() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_gates(&[Gate::H(0), Gate::Ry(1, 0.4), Gate::Rz(2, 1.3)])
            .unwrap();
        let mut a = sv.clone();
        let mut b = sv.clone();
        let gate = Gate::Rxx(0, 2, 0.9);
        a.apply_gate(&gate).unwrap();
        b.apply_k_qubit_matrix(&gate.qubits(), &gate.matrix())
            .unwrap();
        for (x, y) in a.to_amplitudes().iter().zip(b.to_amplitudes().iter()) {
            assert!(x.approx_eq(*y, 1e-9));
        }
    }

    #[test]
    fn out_of_range_and_duplicate_qubits_error() {
        let mut sv = StateVector::zero_state(2);
        assert!(sv.apply_gate(&Gate::H(2)).is_err());
        assert!(sv.apply_gate(&Gate::Swap(1, 1)).is_err());
    }

    #[test]
    fn k_qubit_matrix_rejects_invalid_operands() {
        let mut sv = StateVector::zero_state(3);
        let before = sv.clone();
        let m = CMatrix::identity(4);
        // Duplicate qubit index.
        assert_eq!(
            sv.apply_k_qubit_matrix(&[1, 1], &m),
            Err(SimError::DuplicateQubit(1))
        );
        // Out-of-range qubit index.
        assert!(matches!(
            sv.apply_k_qubit_matrix(&[0, 5], &m),
            Err(SimError::QubitOutOfRange { qubit: 5, .. })
        ));
        // Matrix shape not matching the qubit count.
        assert!(matches!(
            sv.apply_k_qubit_matrix(&[0], &m),
            Err(SimError::InvalidState(_))
        ));
        // Too many qubits for the dense kernels.
        let big = CMatrix::identity(1 << 7);
        let mut wide = StateVector::zero_state(8);
        assert!(matches!(
            wide.apply_k_qubit_matrix(&[0, 1, 2, 3, 4, 5, 6], &big),
            Err(SimError::Unsupported(_))
        ));
        // A failed application leaves the state untouched.
        assert_eq!(sv, before);
    }

    #[test]
    fn k_qubit_matrix_matches_per_gate_application_for_all_arities() {
        let mut sv = StateVector::zero_state(4);
        sv.apply_gates(&[Gate::H(0), Gate::Ry(1, 0.4), Gate::Rz(2, 1.3), Gate::H(3)])
            .unwrap();
        for gate in [
            Gate::Ry(2, 0.9),
            Gate::Rxx(3, 0, 1.1),
            Gate::CSwap {
                control: 3,
                a: 0,
                b: 2,
            },
        ] {
            let mut a = sv.clone();
            let mut b = sv.clone();
            a.apply_gate(&gate).unwrap();
            b.apply_k_qubit_matrix(&gate.qubits(), &gate.matrix())
                .unwrap();
            for (x, y) in a.to_amplitudes().iter().zip(b.to_amplitudes().iter()) {
                assert!(x.approx_eq(*y, 1e-12), "gate {}", gate.name());
            }
        }
    }

    #[test]
    fn inner_product_and_fidelity() {
        let mut a = StateVector::zero_state(2);
        let b = StateVector::zero_state(2);
        assert!((a.fidelity(&b).unwrap() - 1.0).abs() < TOL);
        a.apply_gate(&Gate::X(0)).unwrap();
        assert!(a.fidelity(&b).unwrap() < TOL);
        let c = StateVector::zero_state(3);
        assert!(a.fidelity(&c).is_err());
    }

    #[test]
    fn tensor_product_dimensions() {
        let a = StateVector::basis_state(2, 2).unwrap();
        let b = StateVector::basis_state(1, 1).unwrap();
        let t = a.tensor(&b);
        assert_eq!(t.num_qubits(), 3);
        // index = a_index * 2 + b_index = 2*2 + 1 = 5
        assert_eq!(t.amplitude(5), Complex::ONE);
    }

    #[test]
    fn measurement_collapses_state() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::H(0)).unwrap();
        let outcome = sv.measure_qubit(0, &mut rng).unwrap();
        let p1 = sv.probability_of_one(0).unwrap();
        if outcome {
            assert!((p1 - 1.0).abs() < TOL);
        } else {
            assert!(p1 < TOL);
        }
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sv = StateVector::zero_state(2);
        sv.apply_gates(&[Gate::H(0), Gate::X(1)]).unwrap();
        sv.reset_qubit(0, &mut rng).unwrap();
        assert!(sv.probability_of_one(0).unwrap() < TOL);
        assert!((sv.probability_of_one(1).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::Ry(0, 2.0 * (0.25f64).sqrt().asin()))
            .unwrap();
        let ones = sv.sample_qubit(0, 20_000, &mut rng).unwrap();
        let frac = ones as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "sampled fraction {frac}");
    }

    #[test]
    fn sample_full_register() {
        let mut rng = StdRng::seed_from_u64(11);
        let sv = StateVector::basis_state(3, 6).unwrap();
        for _ in 0..10 {
            assert_eq!(sv.sample(&mut rng), 6);
        }
    }

    #[test]
    fn bloch_vector_of_known_states() {
        let sv = StateVector::zero_state(1);
        let [x, y, z] = sv.bloch_vector(0).unwrap();
        assert!(x.abs() < TOL && y.abs() < TOL && (z - 1.0).abs() < TOL);

        let mut plus = StateVector::zero_state(1);
        plus.apply_gate(&Gate::H(0)).unwrap();
        let [x, y, z] = plus.bloch_vector(0).unwrap();
        assert!((x - 1.0).abs() < TOL && y.abs() < TOL && z.abs() < TOL);

        let mut minus_y = StateVector::zero_state(1);
        minus_y.apply_gate(&Gate::Rx(0, PI / 2.0)).unwrap();
        let [_, y, _] = minus_y.bloch_vector(0).unwrap();
        assert!((y + 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_preserved_under_long_circuits() {
        let mut sv = StateVector::zero_state(4);
        let gates = vec![
            Gate::H(0),
            Gate::Ry(1, 0.3),
            Gate::CRy {
                control: 0,
                target: 2,
                theta: 1.1,
            },
            Gate::Rzz(1, 3, 0.6),
            Gate::CSwap {
                control: 0,
                a: 1,
                b: 2,
            },
            Gate::Rx(3, 2.2),
            Gate::Cz {
                control: 2,
                target: 3,
            },
        ];
        for _ in 0..10 {
            sv.apply_gates(&gates).unwrap();
        }
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
