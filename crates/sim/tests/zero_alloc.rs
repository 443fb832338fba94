//! Asserts the zero-allocation contract of the batched analytic inner
//! loop: once a packed class matrix, a scratch register and an output row
//! exist, restarting the register from a prepared state and sweeping it
//! against every class performs **no heap allocation at all**.
//!
//! The whole test binary runs under a counting wrapper around the system
//! allocator (test binaries each own their `#[global_allocator]`), so the
//! assertion measures real allocator traffic, not a proxy. The count is
//! kept per thread: the test harness runs tests on parallel threads, and
//! one test's allocations must not show up in another's window.

use quclassi_sim::circuit::Circuit;
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

/// A circuit mixing dense, diagonal and permutation gates, with two
/// parameters so one shape yields several distinct states.
fn workload(n: usize) -> Circuit {
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
fn gemm_fidelity_sweep_is_allocation_free_in_steady_state() {
    // The GEMM-shaped batched-inference inner loop: restart a reused
    // scratch register from a prepared sample state, then sweep it against
    // a packed class matrix. Once the matrix, scratch and output row
    // exist, the whole loop must never touch the heap.
    let n = 10;
    let circuit = workload(n);
    let classes: Vec<StateVector> = [0.31, -0.87, 1.62]
        .iter()
        .map(|&p| circuit.execute(&[p, 0.5 - p]).unwrap())
        .collect();
    let matrix = StateMatrix::pack(&classes).unwrap();
    let sample = circuit.execute(&[0.83, -1.21]).unwrap();

    let mut scratch = StateVector::zero_state(n);
    let mut fidelities = vec![0.0f64; matrix.rows()];
    // Warm-up, and the reference row the steady-state sweeps must keep
    // reproducing.
    scratch.clone_from(&sample);
    matrix.fidelities_into(&scratch, &mut fidelities).unwrap();
    let expected: Vec<u64> = fidelities.iter().map(|f| f.to_bits()).collect();

    let before = allocations();
    for _ in 0..100 {
        scratch.clone_from(&sample);
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
