//! Pool-level chaos proptests: seed-derived interleavings of good,
//! panicking, delayed, force-errored and zero-deadline requests replayed
//! against [`ServePool`] at 1/2/4 workers.
//!
//! The invariants (the fault-isolation contract of `serve_pool`):
//!
//! * every accepted request is answered **exactly once** — no losses, no
//!   duplicates, at any worker count, under any fault interleaving;
//! * a faulted request fails with its own error kind (`internal` for
//!   injected panics and forced errors, `deadline_exceeded` for expired
//!   deadlines) and never takes a batchmate down with it;
//! * non-faulted requests stay **bit-identical** to the serial
//!   single-session oracle, even when a neighbor in their micro-batch
//!   panicked and the batch was retried;
//! * the pool never wedges: a fresh request after the chaos still gets a
//!   real answer, the counters reconcile (`served + errors +
//!   deadline_shed` = accepted), and `drain` returns with depth 0.
//!
//! Interleavings are derived from one generated `u64` seed via xorshift
//! (the vendored proptest has no collection strategies), so a failing
//! seed reproduces the exact fault plan. `PROPTEST_SEED` pins the whole
//! run.

use llmulator::{
    silence_injected_panics, Counter, DigitCodec, Engine, EngineConfig, FaultPlan, ModelScale,
    NumericPredictor, PoolConfig, PredictRequest, PredictorConfig, ServeJob, ServePool,
};
use llmulator_token::NumericMode;
use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const REQUESTS: u64 = 16;

fn chaos_engine() -> Arc<Engine> {
    let engine = EngineConfig::new().threads(1).build();
    engine.register_predictor(
        "default",
        NumericPredictor::new(PredictorConfig {
            scale: ModelScale::Small,
            codec: DigitCodec::decimal(4),
            numeric_mode: NumericMode::Digits,
            max_len: 48,
            seed: 11,
        }),
    );
    Arc::new(engine)
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Fate {
    Clean,
    Panic,
    Delay,
    Error,
    Deadline,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Expands one seed into a per-arrival fate table (~half the requests
/// faulted) and the matching [`FaultPlan`].
fn derive_plan(seed: u64) -> (Vec<Fate>, FaultPlan) {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 0x9E37_79B9_7F4A_7C15;
    }
    let fates: Vec<Fate> = (0..REQUESTS)
        .map(|_| match xorshift(&mut state) % 10 {
            0 | 1 => Fate::Panic,
            2 => Fate::Delay,
            3 => Fate::Error,
            4 => Fate::Deadline,
            _ => Fate::Clean,
        })
        .collect();
    let mut plan = FaultPlan::new();
    for (at, fate) in fates.iter().enumerate() {
        let at = at as u64;
        plan = match fate {
            Fate::Panic => plan.panic_at(at),
            Fate::Delay => plan.delay_at(at, Duration::from_millis(2)),
            Fate::Error => plan.error_at(at),
            Fate::Clean | Fate::Deadline => plan,
        };
    }
    (fates, plan)
}

/// The request arrival `k` carries (shared by the chaos run and the
/// oracle, so answers are comparable).
fn request(k: u64) -> PredictRequest {
    PredictRequest::tokens(vec![k as u32, (k as u32) * 3 + 1, 7])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One seed-derived chaos interleaving, replayed at 1/2/4 workers.
    #[test]
    fn chaos_interleavings_answer_every_request_exactly_once(seed in 1u64..1_000_000) {
        silence_injected_panics();
        let (fates, plan) = derive_plan(seed);
        // Serial single-session oracle: what every non-faulted request
        // must answer, bit for bit.
        let engine = chaos_engine();
        let oracle: Vec<_> = (0..REQUESTS)
            .map(|k| {
                let mut session = engine.session();
                session.predict(&request(k)).expect("oracle predicts")
            })
            .collect();

        for workers in [1usize, 2, 4] {
            // A fresh engine (the same seed-11 model) per worker count, so
            // its counters are this pool's alone.
            let engine = chaos_engine();
            let mut pool = ServePool::start_with_faults(
                Arc::clone(&engine),
                PoolConfig {
                    workers,
                    max_batch: 8,
                    max_queue: 64,
                    ..PoolConfig::default()
                },
                plan.clone(),
            );
            let (tx, rx) = mpsc::channel();
            for (k, fate) in fates.iter().enumerate() {
                let tx = tx.clone();
                let timeout = match fate {
                    // An already-expired deadline: shed at dequeue, never
                    // executed, deterministically.
                    Fate::Deadline => Some(Duration::ZERO),
                    _ => None,
                };
                pool.submit(
                    ServeJob::new(request(k as u64), move |result, _| {
                        tx.send((k, result)).expect("send");
                    })
                    .timeout(timeout),
                );
            }
            drop(tx);
            let mut done: Vec<_> = rx.iter().collect();

            // Exactly one response per id — no losses, no duplicates.
            done.sort_by_key(|(k, _)| *k);
            let ids: Vec<usize> = done.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(
                &ids,
                &(0..REQUESTS as usize).collect::<Vec<_>>(),
                "workers={}: every request answered exactly once", workers
            );

            for (k, result) in done {
                match fates[k] {
                    Fate::Deadline => prop_assert_eq!(
                        result.expect_err("expired deadline must shed").kind(),
                        "deadline_exceeded",
                        "workers={} k={}", workers, k
                    ),
                    Fate::Panic | Fate::Error => prop_assert_eq!(
                        result.expect_err("faulted request must fail").kind(),
                        "internal",
                        "workers={} k={}", workers, k
                    ),
                    Fate::Clean | Fate::Delay => {
                        let got = result.expect("non-faulted request succeeds");
                        prop_assert_eq!(
                            &got, &oracle[k],
                            "workers={} k={}: bit-identical to the serial oracle",
                            workers, k
                        );
                    }
                }
            }

            // Liveness after chaos: the pool is not wedged. (Arrival
            // REQUESTS has no fault — the plan only covers 0..REQUESTS.)
            let (tx, rx) = mpsc::channel();
            pool.submit(ServeJob::new(request(999), move |result, _| {
                tx.send(result.is_ok()).expect("send");
            }));
            prop_assert!(
                rx.recv().expect("answered"),
                "workers={}: pool serves after chaos", workers
            );

            // Counters reconcile with the fates: nothing double-counted.
            pool.drain();
            let count = |counter| engine.counters().get(counter);
            let panics = fates.iter().filter(|f| **f == Fate::Panic).count() as u64;
            let errors = fates.iter().filter(|f| **f == Fate::Error).count() as u64;
            let deadlines = fates.iter().filter(|f| **f == Fate::Deadline).count() as u64;
            prop_assert_eq!(count(Counter::DeadlineShed), deadlines, "workers={}", workers);
            prop_assert_eq!(count(Counter::Errors), panics + errors, "workers={}", workers);
            prop_assert_eq!(
                count(Counter::Served),
                REQUESTS - panics - errors - deadlines + 1, // +1 liveness probe
                "workers={}", workers
            );
            prop_assert!(
                count(Counter::PanicsContained) >= panics,
                "workers={}: every injected panic was contained (contained {}, injected {})",
                workers, count(Counter::PanicsContained), panics
            );
            prop_assert_eq!(count(Counter::Shed), 0, "workers={}", workers);
            prop_assert_eq!(pool.depth(), 0, "workers={}", workers);
        }
    }
}
