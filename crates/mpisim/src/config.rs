//! Machine model configuration.
//!
//! The defaults are loosely calibrated to the paper's testbed — *Beskow*, a
//! Cray XC40 with Aries interconnect and two 16-core Haswell sockets per
//! node — at the level of fidelity the experiments need: microsecond-scale
//! MPI latency, ~10 GB/s NIC bandwidth, sub-microsecond per-message software
//! overhead, and an OS-noise process that perturbs compute phases.

use desim::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// Interconnect + node parameters for a simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// One-way network latency between different nodes.
    pub inter_latency: SimDuration,
    /// One-way latency between ranks on the same node (shared memory).
    pub intra_latency: SimDuration,
    /// Per-rank NIC injection (tx) bandwidth, bytes/s.
    pub tx_bandwidth: f64,
    /// Per-rank NIC drain (rx) bandwidth, bytes/s. Incast congestion — many
    /// senders targeting one rank — emerges from this serialization.
    pub rx_bandwidth: f64,
    /// Intra-node copy bandwidth, bytes/s.
    pub intra_bandwidth: f64,
    /// Sender CPU overhead per message (the `o` of LogP).
    pub send_overhead: SimDuration,
    /// Receiver CPU overhead per matched message.
    pub recv_overhead: SimDuration,
    /// Ranks per node (for the intra/inter distinction).
    pub ranks_per_node: usize,
    /// OS noise / system interference injected into compute phases.
    pub noise: NoiseModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            inter_latency: SimDuration::from_nanos(1_400),
            intra_latency: SimDuration::from_nanos(400),
            tx_bandwidth: 10e9,
            rx_bandwidth: 10e9,
            intra_bandwidth: 30e9,
            send_overhead: SimDuration::from_nanos(400),
            recv_overhead: SimDuration::from_nanos(400),
            ranks_per_node: 32,
            noise: NoiseModel::default(),
        }
    }
}

impl MachineConfig {
    /// A machine with zero latency/overhead and (practically) infinite
    /// bandwidth and no noise: useful to unit-test communication *logic*
    /// separately from timing.
    pub fn ideal() -> Self {
        MachineConfig {
            inter_latency: SimDuration::ZERO,
            intra_latency: SimDuration::ZERO,
            tx_bandwidth: 1e18,
            rx_bandwidth: 1e18,
            intra_bandwidth: 1e18,
            send_overhead: SimDuration::ZERO,
            recv_overhead: SimDuration::ZERO,
            ranks_per_node: 32,
            noise: NoiseModel::none(),
        }
    }

    /// The node index hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1)
    }

    /// Whether two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// (latency, bandwidth) applicable between two ranks.
    #[inline]
    pub fn link(&self, a: usize, b: usize) -> (SimDuration, f64) {
        if self.same_node(a, b) {
            (self.intra_latency, self.intra_bandwidth)
        } else {
            (self.inter_latency, self.tx_bandwidth)
        }
    }
}

/// A two-component OS-noise model, after the classic characterisations of
/// system interference on large machines (Petrini et al., SC'03, cited as
/// \[3\] in the paper):
///
/// - **Jitter**: every compute phase is stretched by a multiplicative
///   log-normal factor with coefficient of variation `jitter_cv` —
///   capturing fine-grained interference (cache/bandwidth sharing, DVFS,
///   temperature).
/// - **Spikes**: Poisson-arriving detours (daemons, kernel ticks) with rate
///   `spike_rate_hz` and exponentially distributed duration of mean
///   `spike_mean`.
#[derive(Clone, Debug)]
pub struct NoiseModel {
    /// Coefficient of variation of the multiplicative jitter (0 = off).
    pub jitter_cv: f64,
    /// Expected number of noise spikes per second of compute.
    pub spike_rate_hz: f64,
    /// Mean duration of one spike.
    pub spike_mean: SimDuration,
}

impl Default for NoiseModel {
    fn default() -> Self {
        // Mild but visible noise: ~2% CV jitter plus 10 spikes/s of 50us.
        NoiseModel {
            jitter_cv: 0.02,
            spike_rate_hz: 10.0,
            spike_mean: SimDuration::from_micros(50),
        }
    }
}

impl NoiseModel {
    /// No noise at all.
    pub fn none() -> Self {
        NoiseModel { jitter_cv: 0.0, spike_rate_hz: 0.0, spike_mean: SimDuration::ZERO }
    }

    /// Scale both noise components by `f` (ablation knob).
    pub fn scaled(&self, f: f64) -> Self {
        NoiseModel {
            jitter_cv: self.jitter_cv * f,
            spike_rate_hz: self.spike_rate_hz * f,
            spike_mean: self.spike_mean,
        }
    }

    /// Perturb a nominal compute duration. Deterministic given the RNG
    /// state; always >= a small fraction of the nominal work.
    pub fn perturb(&self, nominal: SimDuration, rng: &mut StdRng) -> SimDuration {
        let mut secs = nominal.as_secs_f64();
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        if self.jitter_cv > 0.0 {
            // Log-normal with mean 1 and cv jitter_cv:
            // sigma^2 = ln(1 + cv^2), mu = -sigma^2/2.
            let sigma2 = (1.0 + self.jitter_cv * self.jitter_cv).ln();
            let sigma = sigma2.sqrt();
            let z = gaussian(rng);
            secs *= (sigma * z - sigma2 / 2.0).exp();
        }
        if self.spike_rate_hz > 0.0 && self.spike_mean > SimDuration::ZERO {
            let expected = secs * self.spike_rate_hz;
            let spikes = poisson(expected, rng);
            for _ in 0..spikes {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                secs += -u.ln() * self.spike_mean.as_secs_f64();
            }
        }
        SimDuration::from_secs_f64(secs.max(nominal.as_secs_f64() * 0.01))
    }
}

/// Standard normal via Box–Muller (we avoid extra dependencies).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Poisson sample; inversion for small means, normal approximation above.
pub(crate) fn poisson(mean: f64, rng: &mut StdRng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        let z = gaussian(rng);
        (mean + mean.sqrt() * z).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn node_mapping_groups_consecutive_ranks() {
        let cfg = MachineConfig { ranks_per_node: 4, ..MachineConfig::default() };
        assert_eq!(cfg.node_of(0), 0);
        assert_eq!(cfg.node_of(3), 0);
        assert_eq!(cfg.node_of(4), 1);
        assert!(cfg.same_node(0, 3));
        assert!(!cfg.same_node(3, 4));
        let (lat_in, _) = cfg.link(0, 1);
        let (lat_out, _) = cfg.link(0, 5);
        assert!(lat_in < lat_out);
    }

    #[test]
    fn no_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = NoiseModel::none();
        let d = SimDuration::from_millis(5);
        assert_eq!(n.perturb(d, &mut rng), d);
    }

    #[test]
    fn noise_is_unbiased_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = NoiseModel { jitter_cv: 0.05, spike_rate_hz: 0.0, spike_mean: SimDuration::ZERO };
        let d = SimDuration::from_millis(1);
        let total: f64 = (0..20_000).map(|_| n.perturb(d, &mut rng).as_secs_f64()).sum();
        let mean = total / 20_000.0;
        assert!((mean / d.as_secs_f64() - 1.0).abs() < 0.01, "mean ratio {mean}");
    }

    #[test]
    fn spikes_add_time_on_average() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = NoiseModel {
            jitter_cv: 0.0,
            spike_rate_hz: 100.0,
            spike_mean: SimDuration::from_micros(100),
        };
        let d = SimDuration::from_millis(10); // expect ~1 spike of 100us
        let total: f64 = (0..5_000).map(|_| n.perturb(d, &mut rng).as_secs_f64()).sum();
        let mean = total / 5_000.0;
        let expected = d.as_secs_f64() + 1.0 * 100e-6;
        assert!((mean / expected - 1.0).abs() < 0.05, "mean {mean} vs {expected}");
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum_small = 0u64;
        let mut sum_large = 0u64;
        for _ in 0..10_000 {
            sum_small += poisson(2.0, &mut rng);
            sum_large += poisson(50.0, &mut rng);
        }
        let mean_small = sum_small as f64 / 10_000.0;
        let mean_large = sum_large as f64 / 10_000.0;
        assert!((mean_small - 2.0).abs() < 0.1, "{mean_small}");
        assert!((mean_large - 50.0).abs() < 1.0, "{mean_large}");
    }

    #[test]
    fn gaussian_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let z = gaussian(&mut rng);
            s += z;
            s2 += z * z;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
