//! Stand-in for `crossbeam::channel` over `std::sync::mpsc`. std's receiver
//! is not `Sync`, crossbeam's is, so this one sits behind a mutex.

pub mod channel {
    use std::sync::mpsc;
    use std::sync::{Mutex, MutexGuard};
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    pub struct Receiver<T>(Mutex<mpsc::Receiver<T>>);

    impl<T> Receiver<T> {
        // A panic while receiving leaves the queue intact, so a poisoned
        // lock is recovered.
        fn inner(&self) -> MutexGuard<'_, mpsc::Receiver<T>> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner().recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner().try_recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner().recv_timeout(timeout)
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(Mutex::new(rx)))
    }
}
