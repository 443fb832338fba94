//! Asserts the zero-allocation contract of the analytic scoring inner
//! loop: once the class states, a scratch register and an output row
//! exist, encoding a sample into the register and taking its fidelity
//! with every class performs **no heap allocation at all**.
//!
//! The whole test binary runs under a counting wrapper around the system
//! allocator (test binaries each own their `#[global_allocator]`), so the
//! assertion measures real allocator traffic, not a proxy. The count is
//! kept per thread: the test harness runs tests on parallel threads, and
//! one test's allocations must not show up in another's window.

use quclassi_sim::circuit::Circuit;
use quclassi_sim::gate::matrices;
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

/// Encodes `angles` into `state` the way a dual-angle data encoder does:
/// from |0…0⟩, an RY then an RZ per qubit, in ascending qubit order.
fn encode_into(angles: &[f64], state: &mut StateVector) {
    state.reset_zero();
    for (q, pair) in angles.chunks_exact(2).enumerate() {
        state
            .apply_fresh_2x2(q, &matrices::ry_entries(pair[0]))
            .unwrap();
        let d = matrices::rz_entries(pair[1]);
        state.apply_active_diag(q, d[0], d[3]).unwrap();
    }
}

#[test]
fn gemm_fidelity_sweep_is_allocation_free_in_steady_state() {
    // The analytic-scoring inner loop: encode a sample into a reused
    // scratch register, then take its fidelity with every class state.
    // Once the class states, scratch and output row exist, the whole loop
    // must never touch the heap.
    let n = 10;
    let circuit = workload(n);
    let classes: Vec<StateVector> = [0.31, -0.87, 1.62]
        .iter()
        .map(|&p| circuit.execute(&[p, 0.5 - p]).unwrap())
        .collect();
    let samples: Vec<Vec<f64>> = (0..4)
        .map(|s| {
            (0..2 * n)
                .map(|i| 0.1 + 0.37 * (s * 2 * n + i) as f64)
                .collect()
        })
        .collect();

    let mut scratch = StateVector::zero_state(n);
    let mut fidelities = vec![0.0f64; classes.len()];
    let mut score = |angles: &[f64], out: &mut [f64]| {
        encode_into(angles, &mut scratch);
        for (slot, class) in out.iter_mut().zip(&classes) {
            *slot = class.fidelity(&scratch).unwrap();
        }
    };
    // Warm-up, and the reference rows the steady-state loop must keep
    // reproducing.
    let expected: Vec<Vec<u64>> = samples
        .iter()
        .map(|a| {
            score(a, &mut fidelities);
            fidelities.iter().map(|f| f.to_bits()).collect()
        })
        .collect();

    let before = allocations();
    for _ in 0..25 {
        for (a, want) in samples.iter().zip(&expected) {
            score(a, &mut fidelities);
            for (f, &bits) in fidelities.iter().zip(want) {
                assert_eq!(f.to_bits(), bits);
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state analytic scoring must not touch the heap"
    );
}
