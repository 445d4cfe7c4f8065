//! Steady-state allocation test: after workspace warm-up, a forward pass
//! must not touch the heap at all.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the workspaces up, flips the counter on, runs many passes and asserts
//! the count stayed at zero. This file holds exactly one test so no
//! concurrent test can pollute the counter, and the network is sized so
//! every kernel takes its serial dispatch path (parallel paths hand work
//! to rayon, whose queues are outside this contract).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use diagnet_nn::loss::{ideal_label_grad_into, softmax_cross_entropy_weighted_into};
use diagnet_nn::network::Gradients;
use diagnet_nn::prelude::*;
use diagnet_nn::workspace::{BackwardWorkspace, ForwardWorkspace};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A DiagNet-shaped stack (LandPool incl. a percentile op → Dense → ReLU
/// → Dense) small enough that every linalg/pooling dispatch stays serial.
fn small_net() -> Network {
    Network::new(vec![
        Layer::land_pool(
            3,
            2,
            2,
            vec![PoolOp::Min, PoolOp::Avg, PoolOp::Percentile(50)],
            1,
        ),
        Layer::dense(3 * 3 + 2, 16, 2),
        Layer::relu(),
        Layer::dense(16, 4, 3),
    ])
}

#[test]
fn steady_state_forward_is_allocation_free() {
    let net = small_net();
    let mut fws = ForwardWorkspace::new(&net);
    let mut bws = BackwardWorkspace::new(&net);
    let mut grads = Gradients::zeros_like(&net);
    let mut grad_logits = Matrix::zeros(0, 0);
    let x = Matrix::from_vec(
        4,
        4 * 2 + 2,
        (0..4 * 10).map(|i| (i as f32 * 0.37).sin()).collect(),
    );
    let targets = [0usize, 2, 1, 3];

    // Warm-up: buffers grow to steady-state capacity.
    for _ in 0..3 {
        net.forward_ws(&x, &mut fws);
        softmax_cross_entropy_weighted_into(fws.output(), &targets, None, &mut grad_logits);
        grads.zero();
        bws.grad_logits_mut().copy_from(&grad_logits);
        net.backward_ws(&x, &fws, Some(&mut grads), &mut bws, None);
    }

    // Steady state: the forward pass must never hit the allocator.
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut checksum = 0.0f32;
    for _ in 0..50 {
        let logits = net.forward_ws(&x, &mut fws);
        checksum += logits.get(0, 0);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let forward_allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(checksum.is_finite());
    assert_eq!(
        forward_allocs, 0,
        "steady-state forward pass allocated {forward_allocs} times"
    );

    // The full training step (loss + backward) must also be clean on the
    // serial path.
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..20 {
        net.forward_ws(&x, &mut fws);
        softmax_cross_entropy_weighted_into(fws.output(), &targets, None, &mut grad_logits);
        grads.zero();
        bws.grad_logits_mut().copy_from(&grad_logits);
        net.backward_ws(&x, &fws, Some(&mut grads), &mut bws, None);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let step_allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(
        step_allocs, 0,
        "steady-state training step allocated {step_allocs} times"
    );

    // The fused saliency primitive — one cached forward plus the
    // ideal-label backward through the same workspaces — must be equally
    // clean: it is the serving path's per-batch inner loop. As in serving,
    // the Dense `Wᵀ`s come from a plan built once, outside the loop.
    let plan = net.input_grad_plan();
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..20 {
        net.input_gradient_ws(&x, &mut fws, &mut bws, Some(&plan), ideal_label_grad_into);
        checksum += bws.input_grad().get(0, 0);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let saliency_allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(checksum.is_finite());
    assert_eq!(
        saliency_allocs, 0,
        "steady-state saliency backward allocated {saliency_allocs} times"
    );
}
