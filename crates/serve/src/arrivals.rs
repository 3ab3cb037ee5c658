//! Open-loop arrival traces.
//!
//! An open-loop generator emits requests on its own schedule regardless
//! of whether the server keeps up — the defining property that makes
//! overload visible (a closed loop self-throttles and can never drive
//! the server past its knee). Traces are synthesized deterministically
//! from a seed with the same `unit_hash` used for dataset synthesis, so
//! every processor (and every run) sees the identical trace.

use fx_apps::util::unit_hash;

/// One tenant's offered load: a Poisson stream of `requests` requests
/// at `rate` requests per second (of virtual time when simulating).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name, used for telemetry labels and SLO reporting.
    pub name: String,
    /// Mean arrival rate, requests/second.
    pub rate: f64,
    /// Number of requests this tenant offers.
    pub requests: usize,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: &str, rate: f64, requests: usize) -> Self {
        TenantSpec { name: name.to_string(), rate, requests }
    }
}

/// One request in an arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Global trace index (position in arrival order); also the request
    /// id reported in completions.
    pub idx: usize,
    /// Index into the tenant list this request belongs to.
    pub tenant: usize,
    /// Per-tenant sequence number.
    pub seq: usize,
    /// Which dataset the request asks the pipeline to process.
    pub dataset: usize,
    /// Arrival time, seconds from serve start.
    pub arrival: f64,
}

/// Deterministic Poisson arrival trace for a set of tenants, merged
/// into one stream sorted by arrival time.
///
/// Inter-arrival gaps are exponential via inverse-CDF
/// (`dt = -ln(1 - u) / rate`) over `unit_hash` draws, so the trace is a
/// pure function of `(tenants, seed)` — identical on every processor
/// and every host, which the replicated simulated-time admission loop
/// depends on. Ties (exactly equal arrivals) are broken by
/// `(tenant, seq)` so the merge order is total.
pub fn poisson_trace(tenants: &[TenantSpec], seed: u64) -> Vec<ServeRequest> {
    let mut all: Vec<ServeRequest> = Vec::new();
    for (t, spec) in tenants.iter().enumerate() {
        assert!(spec.rate > 0.0, "tenant {} has non-positive rate", spec.name);
        let mut at = 0.0f64;
        for seq in 0..spec.requests {
            let u = unit_hash(seed, t as u64, seq as u64).clamp(1e-12, 1.0 - 1e-12);
            at += -(1.0 - u).ln() / spec.rate;
            let dataset = (unit_hash(seed ^ 0x0DA7_A5E7, t as u64, seq as u64) * 64.0) as usize;
            all.push(ServeRequest { idx: 0, tenant: t, seq, dataset, arrival: at });
        }
    }
    all.sort_by(|a, b| {
        a.arrival
            .partial_cmp(&b.arrival)
            .expect("arrival times are finite")
            .then(a.tenant.cmp(&b.tenant))
            .then(a.seq.cmp(&b.seq))
    });
    for (i, r) in all.iter_mut().enumerate() {
        r.idx = i;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_sorted_and_complete() {
        let tenants =
            vec![TenantSpec::new("gold", 40.0, 25), TenantSpec::new("bronze", 10.0, 10)];
        let a = poisson_trace(&tenants, 7);
        let b = poisson_trace(&tenants, 7);
        assert_eq!(a, b, "same seed must give the identical trace");
        assert_eq!(a.len(), 35);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival), "sorted by arrival");
        assert!(a.iter().enumerate().all(|(i, r)| r.idx == i), "idx is trace position");
        assert_eq!(a.iter().filter(|r| r.tenant == 0).count(), 25);
        assert_eq!(a.iter().filter(|r| r.tenant == 1).count(), 10);
        // Per-tenant seq order must survive the merge.
        let seqs: Vec<usize> = a.iter().filter(|r| r.tenant == 1).map(|r| r.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rate_controls_density() {
        let fast = poisson_trace(&[TenantSpec::new("f", 100.0, 200)], 3);
        let slow = poisson_trace(&[TenantSpec::new("s", 10.0, 200)], 3);
        let span_fast = fast.last().unwrap().arrival;
        let span_slow = slow.last().unwrap().arrival;
        // 10x the rate should compress the span by roughly 10x.
        assert!(
            span_slow / span_fast > 5.0,
            "expected much denser arrivals at higher rate: {span_fast} vs {span_slow}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = poisson_trace(&[TenantSpec::new("t", 50.0, 50)], 1);
        let b = poisson_trace(&[TenantSpec::new("t", 50.0, 50)], 2);
        assert_ne!(a, b);
    }
}
