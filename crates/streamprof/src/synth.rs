//! Synthetic traces generated *from* the performance model, with known
//! parameters — the ground truth the [`crate::fit`](mod@crate::fit) estimators are
//! validated against.

use desim::SimTime;

use crate::sink::{Clock, ProfSink};
use crate::trace::Trace;

/// Known Eq. 4 parameters to generate a trace from.
#[derive(Clone, Copy, Debug)]
pub struct SynthSpec {
    /// Producer ranks `0..producers`.
    pub producers: usize,
    /// Consumer ranks `producers..producers+consumers`.
    pub consumers: usize,
    pub elements_per_producer: u64,
    /// Granularity `S` (bytes per element).
    pub element_bytes: u64,
    /// Nominal per-producer compute time (s); the slowest producer runs
    /// longer so that max − mean equals `t_sigma` exactly.
    pub t_w0: f64,
    /// Consumer busy time at the tail (s).
    pub t_w1: f64,
    /// Imbalance: max − mean producer compute (s). Needs ≥ 2 producers.
    pub t_sigma: f64,
    /// Per-element send overhead (s).
    pub overhead_o: f64,
    /// Non-overlap fraction in [0, 1].
    pub beta: f64,
}

/// Generate the trace of an idealized decoupled run obeying Eq. 4 with
/// the spec's parameters: every producer computes then sends, the last
/// producer carries the imbalance, and the consumers finish at
/// `makespan = β·(mean_compute + Tσ + o·E) + T_W1`.
///
/// Panics if the spec is not realizable — the modelled makespan must not
/// undercut the slowest producer's own finish time (raise `beta` or
/// `t_w1` if it does), and `t_sigma > 0` needs at least two producers.
pub fn synthesize(spec: &SynthSpec) -> Trace {
    assert!(spec.producers >= 1 && spec.consumers >= 1);
    assert!((0.0..=1.0).contains(&spec.beta));
    assert!(
        spec.t_sigma == 0.0 || spec.producers >= 2,
        "imbalance needs at least two producers (max == mean with one)"
    );
    let p = spec.producers;
    let e = spec.elements_per_producer;
    // The slowest producer's surplus x satisfies max − mean = Tσ:
    // x − x/P = Tσ, i.e. x = Tσ·P/(P−1).
    let x = if p > 1 { spec.t_sigma * p as f64 / (p - 1) as f64 } else { 0.0 };
    let mean_c = spec.t_w0 + x / p as f64;
    let send_secs = spec.overhead_o * e as f64;
    let makespan = spec.beta * (mean_c + spec.t_sigma + send_secs) + spec.t_w1;
    let slowest_end = spec.t_w0 + x + send_secs;
    assert!(
        makespan >= slowest_end,
        "spec not realizable: modelled makespan {makespan:.6}s undercuts the slowest \
         producer's finish {slowest_end:.6}s — raise beta or t_w1"
    );
    let at = |secs: f64| SimTime((secs * 1e9).round() as u64);

    let sink = ProfSink::new(Clock::Virtual);
    for pid in 0..p {
        let c = spec.t_w0 + if pid == p - 1 { x } else { 0.0 };
        sink.record_span(pid, "compute", SimTime::ZERO, at(c));
        sink.record_span(pid, "send", at(c), at(c + send_secs));
        sink.stream_send(pid, 0, e, e * spec.element_bytes);
    }
    let total = e * p as u64;
    let share = total / spec.consumers as u64;
    for i in 0..spec.consumers {
        let pid = p + i;
        // Last consumer takes the division remainder.
        let elems = if i == spec.consumers - 1 {
            total - share * (spec.consumers as u64 - 1)
        } else {
            share
        };
        sink.record_span(pid, "wait-data", SimTime::ZERO, at(makespan - spec.t_w1));
        sink.record_span(pid, "compute", at(makespan - spec.t_w1), at(makespan));
        sink.stream_recv(pid, 0, elems, elems * spec.element_bytes);
    }
    sink.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_has_the_advertised_shape() {
        let spec = SynthSpec {
            producers: 4,
            consumers: 1,
            elements_per_producer: 100,
            element_bytes: 8,
            t_w0: 1.0,
            t_w1: 0.8,
            t_sigma: 0.2,
            overhead_o: 1e-5,
            beta: 0.7,
        };
        let trace = synthesize(&spec);
        // 2 spans per rank, plus one counter entry each.
        assert_eq!(trace.spans().len(), 10);
        assert_eq!(trace.streams().len(), 5);
        // Imbalance shows up as the last producer computing longer.
        let totals = trace.totals_by_cat();
        let c0 = totals[&(0, "compute")];
        let c3 = totals[&(3, "compute")];
        assert!(c3 > c0);
        // max − mean == t_sigma by construction.
        let mean = (3.0 * c0 + c3) / 4.0;
        assert!((c3 - mean - spec.t_sigma).abs() < 1e-9);
        // The consumer is the tail of the timeline.
        let expected = spec.beta * (mean + spec.t_sigma + 1e-5 * 100.0) + spec.t_w1;
        assert!((trace.makespan_secs() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not realizable")]
    fn unrealizable_spec_panics() {
        // β ≈ 0 with a tiny t_w1: the consumer would finish before the
        // slowest producer even starts sending.
        synthesize(&SynthSpec {
            producers: 2,
            consumers: 1,
            elements_per_producer: 10,
            element_bytes: 8,
            t_w0: 1.0,
            t_w1: 0.01,
            t_sigma: 0.5,
            overhead_o: 1e-6,
            beta: 0.0,
        });
    }

    #[test]
    fn remainder_elements_go_to_the_last_consumer() {
        let trace = synthesize(&SynthSpec {
            producers: 3,
            consumers: 2,
            elements_per_producer: 5, // 15 total: 7 + 8
            element_bytes: 8,
            t_w0: 1.0,
            t_w1: 2.0,
            t_sigma: 0.0,
            overhead_o: 1e-6,
            beta: 0.9,
        });
        assert_eq!(trace.streams()[&(3, 0)].elems_recv, 7);
        assert_eq!(trace.streams()[&(4, 0)].elems_recv, 8);
    }
}
