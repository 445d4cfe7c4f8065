//! The stand-ins under `shims/` must behave as the crates they replace in
//! the ways this repository relies on.

use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn locks_are_not_poisoned_by_a_panic() {
    let mutex = Arc::new(parking_lot::Mutex::new(1));
    let rwlock = Arc::new(parking_lot::RwLock::new(1));
    let (m, r) = (Arc::clone(&mutex), Arc::clone(&rwlock));
    let panicked = std::thread::spawn(move || {
        let _held = m.lock();
        let _written = r.write();
        panic!("while holding both locks");
    })
    .join();
    assert!(panicked.is_err());
    *mutex.lock() += 1;
    *rwlock.write() += 1;
    assert_eq!((*mutex.lock(), *rwlock.read()), (2, 2));
    assert!(mutex.try_lock().is_some());
}

#[test]
fn try_lock_fails_only_while_the_lock_is_held() {
    let mutex = parking_lot::Mutex::new(());
    let held = mutex.lock();
    assert!(mutex.try_lock().is_none());
    drop(held);
    assert!(mutex.try_lock().is_some());
}

#[test]
fn a_channel_times_out_and_delivers_across_threads() {
    let (tx, rx) = crossbeam::channel::unbounded::<u32>();
    let begin = Instant::now();
    assert!(rx.recv_timeout(Duration::from_millis(20)).is_err());
    assert!(begin.elapsed() >= Duration::from_millis(20));
    assert!(rx.try_recv().is_err());

    // The receiver is shared by reference between threads, which std's is
    // not allowed to be.
    let rx = Arc::new(rx);
    let consumer = {
        let rx = Arc::clone(&rx);
        std::thread::spawn(move || (rx.recv().unwrap(), rx.recv().unwrap()))
    };
    tx.clone().send(7).unwrap();
    tx.send(8).unwrap();
    assert_eq!(consumer.join().unwrap(), (7, 8));
    drop(tx);
    assert!(rx.recv().is_err());
}

#[test]
fn parallel_adaptors_keep_std_order() {
    let input: Vec<u32> = (0..10).collect();
    let mut out = vec![0u32; 10];
    out.par_chunks_mut(3)
        .zip(input.par_chunks(3))
        .enumerate()
        .for_each(|(i, (dst, src))| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s * 10 + i as u32;
            }
        });
    let mut expected = vec![0u32; 10];
    for (i, (dst, src)) in expected.chunks_mut(3).zip(input.chunks(3)).enumerate() {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s * 10 + i as u32;
        }
    }
    assert_eq!(out, expected);

    let doubled: Vec<u32> = input.par_iter().map(|v| v * 2).collect();
    assert_eq!(doubled, (0..10).map(|v| v * 2).collect::<Vec<_>>());
    let flat: Vec<usize> = (0..3usize)
        .into_par_iter()
        .flat_map_iter(|i| vec![i; i])
        .collect();
    assert_eq!(flat, [1, 2, 2]);
    let mut bumped = input.clone();
    bumped.par_iter_mut().for_each(|v| *v += 1);
    assert_eq!(bumped, (1..11).collect::<Vec<_>>());
    assert_eq!(rayon::join(|| 1, || "b"), (1, "b"));
}
