//! Asserts the zero-allocation contract of the scratch-reusing replay
//! path: once a [`BoundFusedCircuit`] and its scratch statevector exist,
//! steady-state gate application — prelude copy, every dense
//! group, every diagonal/permutation specialisation, and the measurement
//! reduction — performs **no heap allocation at all**.
//!
//! The whole test binary runs under a counting wrapper around the system
//! allocator (test binaries each own their `#[global_allocator]`), so the
//! assertion measures real allocator traffic, not a proxy. The count is
//! kept per thread: the test harness runs tests on parallel threads, and
//! one test's allocations must not show up in another's window.

use quclassi_sim::circuit::Circuit;
use quclassi_sim::fusion::FusedCircuit;
use quclassi_sim::gemm::StateMatrix;
use quclassi_sim::state::StateVector;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const`-initialised and without a destructor, so counting from
    // inside the allocator never allocates or touches a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY-FREE NOTE: implementing `GlobalAlloc` requires `unsafe fn`s by
// signature; the implementation only delegates to `System` and bumps a
// counter, so the crate-level `forbid(unsafe_code)` (which this test
// binary does not inherit) is not weakened in library code.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A circuit exercising every steady-state kernel class: fused dense
/// groups (1-, 2- and 3-qubit), lone diagonal and permutation
/// specialisations, and a parametric remainder that forces dynamic-group
/// binding at `bind` time (not at replay time).
fn replay_workload(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.ry(q, 0.2 + 0.11 * q as f64).rz(q, 0.4 - 0.07 * q as f64);
    }
    for q in 0..n - 1 {
        c.cnot(q, q + 1);
    }
    c.cswap(0, 1, n - 1);
    c.push(quclassi_sim::gate::Gate::Swap(1, n - 2));
    c.push(quclassi_sim::gate::Gate::Cz {
        control: 0,
        target: n - 1,
    });
    c.ry_param(n / 2, 0).rz_param(n / 2, 1);
    c.h(0);
    c
}

#[test]
fn bound_replay_with_reused_scratch_performs_zero_heap_allocation() {
    let n = 10;
    let circuit = replay_workload(n);
    let fused = FusedCircuit::compile(&circuit);
    let bound = fused.bind(&[0.83, -1.21]).unwrap();

    let mut scratch = StateVector::zero_state(n);
    // Warm-up: sizes the scratch buffer and faults in whatever lazy
    // machinery the first execution touches.
    bound.execute_reusing(&mut scratch);
    let expected = scratch.clone();
    let p_expected = scratch.probability_of_one(0).unwrap();

    let before = allocations();
    for _ in 0..100 {
        bound.execute_reusing(&mut scratch);
        let p = scratch.probability_of_one(0).unwrap();
        assert_eq!(p.to_bits(), p_expected.to_bits());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state bound replay must not touch the heap"
    );
    assert_eq!(
        scratch, expected,
        "replays must keep producing the same state"
    );
}

#[test]
fn gemm_fidelity_sweep_is_allocation_free_in_steady_state() {
    // The GEMM-shaped batched-inference inner loop: replay a bound circuit
    // into a reused scratch register, then sweep the scratch against a
    // packed class matrix. Once the matrix, scratch and output row exist,
    // the whole loop must never touch the heap.
    let n = 10;
    let circuit = replay_workload(n);
    let fused = FusedCircuit::compile(&circuit);
    let classes: Vec<StateVector> = [0.31, -0.87, 1.62]
        .iter()
        .map(|&p| {
            let bound = fused.bind(&[p, 0.5 - p]).unwrap();
            bound.execute()
        })
        .collect();
    let matrix = StateMatrix::pack(&classes).unwrap();
    let bound = fused.bind(&[0.83, -1.21]).unwrap();

    let mut scratch = StateVector::zero_state(n);
    let mut fidelities = vec![0.0f64; matrix.rows()];
    // Warm-up, and the reference row the steady-state sweeps must keep
    // reproducing.
    bound.execute_reusing(&mut scratch);
    matrix.fidelities_into(&scratch, &mut fidelities).unwrap();
    let expected: Vec<u64> = fidelities.iter().map(|f| f.to_bits()).collect();

    let before = allocations();
    for _ in 0..100 {
        bound.execute_reusing(&mut scratch);
        matrix.fidelities_into(&scratch, &mut fidelities).unwrap();
        for (f, &bits) in fidelities.iter().zip(expected.iter()) {
            assert_eq!(f.to_bits(), bits);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state GEMM fidelity sweeps must not touch the heap"
    );
}

#[test]
fn fused_execute_reusing_amortizes_to_the_dynamic_rebuild_only() {
    // The unbound path must rebuild parametric group matrices per
    // execution (that is its contract), but with a reused scratch the
    // per-execution allocation count is a small constant — the constituent
    // gates' matrix constructions — not O(register) or O(program).
    let n = 10;
    let circuit = replay_workload(n);
    let fused = FusedCircuit::compile(&circuit);
    let params = [0.83, -1.21];

    let mut scratch = StateVector::zero_state(n);
    fused.execute_reusing(&params, &mut scratch).unwrap();

    let before = allocations();
    for _ in 0..10 {
        fused.execute_reusing(&params, &mut scratch).unwrap();
    }
    let per_execution = (allocations() - before) / 10;
    assert!(
        per_execution <= 16,
        "unbound replay should allocate only small per-bind gate matrices, \
         got {per_execution} allocations per execution"
    );
}
