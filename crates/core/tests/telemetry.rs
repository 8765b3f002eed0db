//! Telemetry tests that assert exact values of the process-wide metrics
//! registry (span counts, the device-op rollup, gauges, the pool's
//! panic counter).
//!
//! They live in their own test binary because the registry is global:
//! in the library's unit-test binary, other tests run MC passes, open
//! spans, step supervisors and panic pool jobs concurrently, and any of
//! those landing inside a test's enabled window would move the value
//! it asserts. Nothing in this binary emits telemetry outside the
//! shared test lock.

use neuspin_cim::OpCounter;
use neuspin_core::telemetry::{
    counter, gauge, ops_snapshot, record_ops, reset, set_enabled, set_model_time_hours,
    span_histogram, take_trace, test_lock,
};
use neuspin_core::{span, HealthConfig, HealthMonitor, HealthPolicy, ThreadPool};

fn with_telemetry<T>(metrics: bool, trace: bool, f: impl FnOnce() -> T) -> T {
    let _guard = test_lock();
    reset();
    set_enabled(metrics, trace);
    let out = f();
    set_enabled(false, false);
    reset();
    out
}

#[test]
fn ops_rollup_uses_op_counter_merge() {
    with_telemetry(true, false, || {
        let d1 = OpCounter { cell_reads: 10, adc_converts: 2, ..OpCounter::new() };
        let d2 = OpCounter { cell_reads: 5, rng_bits: 7, ..OpCounter::new() };
        record_ops(&d1);
        record_ops(&d2);
        let ops = ops_snapshot();
        let mut expect = d1;
        expect.merge(&d2);
        assert_eq!(ops, expect);
    });
}

#[test]
fn span_wall_time_feeds_histogram_not_trace() {
    with_telemetry(true, true, || {
        {
            let _s = span!("test_timed");
        }
        let events = take_trace();
        assert_eq!(events.len(), 1);
        assert!(
            events[0].fields.iter().all(|(k, _)| *k != "ns" && *k != "wall_ns"),
            "wall time must never reach the trace"
        );
        let h = span_histogram("test_timed");
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
        assert_eq!(counter("spans_total").get(), 1);
    });
}

#[test]
fn model_time_is_stamped_into_spans() {
    with_telemetry(true, true, || {
        set_model_time_hours(12.5);
        {
            let _s = span!("test_aged");
        }
        let events = take_trace();
        let (_, t) = events[0].fields.iter().find(|(k, _)| *k == "t_hours").unwrap();
        assert_eq!(t.as_f64(), Some(12.5));
        assert_eq!(gauge("model_time_hours").get(), 12.5);
    });
}

#[test]
fn job_panics_are_counted_via_telemetry() {
    let _guard = test_lock();
    reset();
    set_enabled(true, false);
    let counter = counter("pool_job_panics_total");
    let before = counter.get();
    let pool = ThreadPool::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run_chunked(4, &mut [(); 2], |_, t| if t == 3 { panic!("boom") } else { t })
    }));
    assert!(result.is_err());
    assert_eq!(counter.get() - before, 1, "one panicking job, one count");
    set_enabled(false, false);
    reset();
}

#[test]
fn telemetry_gauge_tracks_latched_tier_not_raw_score() {
    let _guard = test_lock();
    reset();
    set_enabled(true, false);
    let gauge = gauge("health_tier");

    let mut m = HealthMonitor::new(HealthConfig { window: 1, ..HealthConfig::default() });
    m.observe(0.5, 10.0);
    m.freeze_baseline();
    m.observe(0.64, 10.0); // raw Recalibrate, still dwelling
    assert_eq!(m.raw_policy(), HealthPolicy::Recalibrate);
    assert_eq!(gauge.get(), 0.0, "dwelling escalation must not move the gauge");
    m.observe(0.64, 10.0); // dwell met → latch
    assert_eq!(gauge.get(), 1.0);
    // Raw drops back inside the exit band's hover zone: the latch
    // (and the gauge) must hold, not track the instantaneous score.
    m.observe(0.62, 10.0);
    assert_eq!(m.raw_policy(), HealthPolicy::Healthy);
    assert_eq!(m.policy(), HealthPolicy::Recalibrate);
    assert_eq!(gauge.get(), 1.0, "gauge must reflect the latched tier");
    m.observe(0.55, 10.0); // genuine recovery
    assert_eq!(gauge.get(), 0.0);

    set_enabled(false, false);
    reset();
}
