//! Single-flight deduplication of identical in-flight computations.
//!
//! When N concurrent requests carry the same cache key, exactly one —
//! the *leader* — runs the computation; the other N−1 — *followers* —
//! block on a condvar and receive the leader's published result. This
//! is the classic inference-serving request-coalescing shape: a burst
//! of identical expensive sweep requests costs one sweep, not N.
//!
//! A failed computation's typed error `E` reaches every waiter, so a
//! follower answers exactly as its leader does. A panicking leader
//! publishes an error instead of wedging its followers: the computation
//! runs under `catch_unwind` and the panic reaches every waiter as
//! `E::from(Panicked(text))`.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};

use onion_routing::runner::panic_message;

/// Shared state of one in-flight computation.
struct Flight<E> {
    result: Mutex<Option<Result<Arc<String>, E>>>,
    ready: Condvar,
}

/// A panic caught inside a [`SingleFlight::run`] computation: its text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Panicked(pub String);

/// How a [`SingleFlight::run`] call obtained its result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// This call ran the computation.
    Led,
    /// This call blocked on another call's computation.
    Coalesced,
}

/// A keyed single-flight group whose computations fail with `E`.
pub struct SingleFlight<E> {
    inflight: Mutex<HashMap<String, Arc<Flight<E>>>>,
}

impl<E> Default for SingleFlight<E> {
    fn default() -> Self {
        SingleFlight {
            inflight: Mutex::default(),
        }
    }
}

impl<E: Clone + From<Panicked>> SingleFlight<E> {
    /// Runs `compute` for `key`, coalescing with any identical call
    /// already in flight. Returns the result and whether this call led
    /// or coalesced. The leader's error reaches every follower as it is;
    /// a panic inside `compute` is caught and surfaced as
    /// `Err(E::from(Panicked(text)))` to the leader *and* every follower.
    pub fn run<F>(&self, key: &str, compute: F) -> (Result<Arc<String>, E>, Role)
    where
        F: FnOnce() -> Result<Arc<String>, E>,
    {
        let (flight, leader) = {
            let mut map = self.inflight.lock().unwrap();
            match map.get(key) {
                Some(existing) => (Arc::clone(existing), false),
                None => {
                    let fresh = Arc::new(Flight {
                        result: Mutex::new(None),
                        ready: Condvar::new(),
                    });
                    map.insert(key.to_string(), Arc::clone(&fresh));
                    (fresh, true)
                }
            }
        };

        if !leader {
            let mut slot = flight.result.lock().unwrap();
            while slot.is_none() {
                slot = flight.ready.wait(slot).unwrap();
            }
            return (slot.clone().unwrap(), Role::Coalesced);
        }

        let outcome = match std::panic::catch_unwind(AssertUnwindSafe(compute)) {
            Ok(result) => result,
            Err(payload) => {
                let text = panic_message(payload.as_ref());
                Err(Panicked(format!("computation panicked: {text}")).into())
            }
        };
        // Publish before unregistering: a request arriving in between
        // simply joins as a follower and reads the fresh result.
        {
            let mut slot = flight.result.lock().unwrap();
            *slot = Some(outcome.clone());
            flight.ready.notify_all();
        }
        self.inflight.lock().unwrap().remove(key);
        (outcome, Role::Led)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    /// A computation's own failure, or the panic it raised.
    #[derive(Clone, Debug, PartialEq)]
    enum Failure {
        Typed(u32),
        Panic(String),
    }

    impl From<Panicked> for Failure {
        fn from(Panicked(text): Panicked) -> Self {
            Failure::Panic(text)
        }
    }

    type Group = SingleFlight<Failure>;

    #[test]
    fn sequential_calls_each_lead() {
        let flight = Group::default();
        let (r1, role1) = flight.run("k", || Ok(Arc::new("a".to_string())));
        let (r2, role2) = flight.run("k", || Ok(Arc::new("b".to_string())));
        assert_eq!(role1, Role::Led);
        assert_eq!(role2, Role::Led);
        assert_eq!(r1.unwrap().as_str(), "a");
        assert_eq!(r2.unwrap().as_str(), "b");
        assert!(flight.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn concurrent_identical_calls_compute_once() {
        const N: usize = 8;
        let flight = Group::default();
        let computes = AtomicU64::new(0);
        let arrived = AtomicU64::new(0);
        // Every thread bumps `arrived` just before calling run(); the
        // leader's compute spins until all N are accounted for, then
        // yields briefly so the followers pass the registration lock
        // and block on the condvar. This pins the coalesced count at
        // exactly N−1 without follower-side synchronization (followers
        // are blocked inside run() and cannot hit a barrier).
        let gate = Barrier::new(N);
        let roles: Vec<Role> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let (result, role) = flight.run("same-key", || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            while arrived.load(Ordering::SeqCst) < N as u64 {
                                std::thread::yield_now();
                            }
                            // All followers are at most a map-lock away
                            // from registering; let them get there.
                            std::thread::sleep(std::time::Duration::from_millis(250));
                            Ok(Arc::new("shared".to_string()))
                        });
                        assert_eq!(result.unwrap().as_str(), "shared");
                        role
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(roles.iter().filter(|r| **r == Role::Led).count(), 1);
        assert_eq!(
            roles.iter().filter(|r| **r == Role::Coalesced).count(),
            N - 1
        );
        assert!(flight.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let flight = Group::default();
        std::thread::scope(|scope| {
            let a = scope.spawn(|| flight.run("a", || Ok(Arc::new("1".into()))));
            let b = scope.spawn(|| flight.run("b", || Ok(Arc::new("2".into()))));
            assert_eq!(a.join().unwrap().1, Role::Led);
            assert_eq!(b.join().unwrap().1, Role::Led);
        });
    }

    #[test]
    fn leader_panic_releases_followers_with_an_error() {
        let flight = Group::default();
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                flight.run("k", || {
                    gate.wait();
                    // Give the follower time to enqueue behind us.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("sweep exploded");
                })
            });
            let follower = scope.spawn(|| {
                gate.wait();
                flight.run("k", || Ok(Arc::new("never".into())))
            });
            let (leader_result, _) = leader.join().unwrap();
            let (follower_result, follower_role) = follower.join().unwrap();
            let exploded = Failure::Panic("computation panicked: sweep exploded".into());
            assert_eq!(leader_result.unwrap_err(), exploded);
            // The follower either coalesced onto the panicking flight
            // (gets the error) or arrived after unregistration (leads a
            // fresh, successful flight) — both are sound.
            match follower_role {
                Role::Coalesced => assert_eq!(follower_result.unwrap_err(), exploded),
                Role::Led => assert_eq!(follower_result.unwrap().as_str(), "never"),
            }
        });
        assert!(flight.inflight.lock().unwrap().is_empty());
    }

    /// A follower answers with its leader's own error, unchanged. The
    /// leader fails only once the follower holds its flight (the map,
    /// the leader and the follower each hold one `Arc`).
    #[test]
    fn followers_receive_the_leaders_typed_failure() {
        let flight = Group::default();
        let gate = Barrier::new(2);
        let holders = || {
            let map = flight.inflight.lock().unwrap();
            map.get("k").map_or(0, Arc::strong_count)
        };
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                flight.run("k", || {
                    gate.wait();
                    while holders() < 3 {
                        std::thread::yield_now();
                    }
                    Err(Failure::Typed(7))
                })
            });
            let follower = scope.spawn(|| {
                gate.wait();
                flight.run("k", || Err(Failure::Typed(8)))
            });
            assert_eq!(leader.join().unwrap(), (Err(Failure::Typed(7)), Role::Led));
            let followed = follower.join().unwrap();
            assert_eq!(followed, (Err(Failure::Typed(7)), Role::Coalesced));
        });
        assert!(flight.inflight.lock().unwrap().is_empty());
    }
}
