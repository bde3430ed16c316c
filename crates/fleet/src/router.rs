//! The front-end Router: code-cache-affinity routing over a
//! consistent-hash ring.
//!
//! Requests are keyed by AID (the App Warehouse cache key, Fig. 8).
//! Routing prefers a host that already holds a warm container for the
//! app (the per-host warehouse's CID hints), falls back to the AID's
//! consistent-hash home host, and spills clockwise around the ring
//! when the preferred hosts refuse admission. Adding or removing one
//! host only remaps the ring arcs that host owned — the rest of the
//! fleet keeps its code caches warm.

use rattrap::warehouse::Aid;
use std::collections::BTreeSet;

/// Why the router picked the host it picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteReason {
    /// A warm container for the AID already lives there.
    Affinity,
    /// The AID's consistent-hash home host.
    Hash,
    /// Home (and any warm hosts) refused admission; spilled clockwise.
    Spill,
}

impl RouteReason {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            RouteReason::Affinity => "affinity",
            RouteReason::Hash => "hash",
            RouteReason::Spill => "spill",
        }
    }
}

/// A routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Target host index.
    pub host: usize,
    /// Why.
    pub reason: RouteReason,
}

/// Consistent-hash ring over the currently routable hosts.
#[derive(Debug)]
pub struct Router {
    /// (ring point, host), sorted by point.
    points: Vec<(u64, usize)>,
    vnodes: usize,
    /// Distinct hosts on the ring: a walk stops once it has yielded
    /// this many.
    hosts: usize,
    /// Highest host index + 1 (geo cells use global indices): the size
    /// of a walk's dedup table.
    span: usize,
}

/// FNV-1a over a byte string, with a final avalanche so vnode points
/// spread even for short keys.
fn hash_bytes(bytes: &[u8], salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Router {
    /// An empty ring with `vnodes` points per host. More vnodes means
    /// smoother arc ownership; 64 is plenty for single-digit fleets.
    pub fn new(vnodes: usize) -> Self {
        assert!(vnodes > 0, "at least one virtual node per host");
        Router {
            points: Vec::new(),
            vnodes,
            hosts: 0,
            span: 0,
        }
    }

    /// Rebuild the ring over `routable`. Called whenever membership
    /// changes (activation, drain, crash, rejoin) — placement of every
    /// AID whose arc owner survived is unchanged.
    pub fn rebuild(&mut self, routable: &BTreeSet<usize>) {
        self.points.clear();
        for &h in routable {
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&(h as u64).to_le_bytes());
            for v in 0..self.vnodes {
                key[8..].copy_from_slice(&(v as u64).to_le_bytes());
                self.points.push((hash_bytes(&key, 0x9e37_79b9), h));
            }
        }
        self.points.sort_unstable();
        self.hosts = routable.len();
        self.span = routable.last().map_or(0, |&h| h + 1);
    }

    /// Number of distinct hosts on the ring.
    pub fn host_count(&self) -> usize {
        self.hosts
    }

    /// Hosts in ring order starting at `key`'s arc, deduplicated —
    /// the spillover order. Lazy: a caller that stops at the first
    /// admitting host touches only the points up to it, and a full
    /// walk ends as soon as every host has been yielded.
    fn ring_walk(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let (before, from) = self
            .points
            .split_at(self.points.partition_point(|&(p, _)| p < key));
        let mut seen = vec![false; self.span];
        from.iter()
            .chain(before)
            .map(|&(_, h)| h)
            .filter(move |&h| !std::mem::replace(&mut seen[h], true))
            .take(self.hosts)
    }

    /// Route one request.
    ///
    /// * `warm` — hosts whose warehouse holds a live container for the
    ///   AID (CID hints), in ascending host order.
    /// * `admissible` — whether a host will accept one more request
    ///   (active, queue not full).
    ///
    /// Preference: warm hosts (first admissible), then the hash home,
    /// then clockwise spillover. `None` means every routable host
    /// refused admission — the caller sheds.
    pub fn route(
        &self,
        aid: &Aid,
        warm: &[usize],
        mut admissible: impl FnMut(usize) -> bool,
    ) -> Option<RouteDecision> {
        if let Some(&h) = warm.iter().find(|&&h| admissible(h)) {
            return Some(RouteDecision {
                host: h,
                reason: RouteReason::Affinity,
            });
        }
        for (i, h) in self.ring_walk(hash_bytes(aid.0.as_bytes(), 0)).enumerate() {
            if admissible(h) {
                return Some(RouteDecision {
                    host: h,
                    reason: if i == 0 {
                        RouteReason::Hash
                    } else {
                        RouteReason::Spill
                    },
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rattrap::warehouse::aid_of;

    fn ring(hosts: &[usize]) -> Router {
        let mut r = Router::new(64);
        r.rebuild(&hosts.iter().copied().collect());
        r
    }

    /// The eager walk the lazy one replaced: every ring point, deduped
    /// through a `BTreeSet`. The reference for the oracle properties.
    fn reference_walk(r: &Router, key: u64) -> Vec<usize> {
        if r.points.is_empty() {
            return Vec::new();
        }
        let start = r.points.partition_point(|&(p, _)| p < key);
        let mut seen = BTreeSet::new();
        let mut order = Vec::new();
        for i in 0..r.points.len() {
            let (_, h) = r.points[(start + i) % r.points.len()];
            if seen.insert(h) {
                order.push(h);
            }
        }
        order
    }

    /// `route` over [`reference_walk`], logging every admissibility
    /// query in the order it was asked.
    fn reference_route(
        r: &Router,
        aid: &Aid,
        warm: &[usize],
        admissible: impl Fn(usize) -> bool,
        asked: &mut Vec<usize>,
    ) -> Option<(usize, RouteReason)> {
        let mut ask = |h| {
            asked.push(h);
            admissible(h)
        };
        if let Some(&h) = warm.iter().find(|&&h| ask(h)) {
            return Some((h, RouteReason::Affinity));
        }
        let order = reference_walk(r, hash_bytes(aid.0.as_bytes(), 0));
        for (i, h) in order.into_iter().enumerate() {
            if ask(h) {
                let reason = if i == 0 {
                    RouteReason::Hash
                } else {
                    RouteReason::Spill
                };
                return Some((h, reason));
            }
        }
        None
    }

    /// Route the same request through the router and the reference
    /// with an admissibility mask drawn from `mask_seed`: a host admits
    /// with probability `density / 4` (0 sheds everything). Both the
    /// decision and the sequence of admissibility queries must match.
    fn check_against_reference(
        hosts: &BTreeSet<usize>,
        app: u64,
        warm: &[usize],
        mask_seed: u64,
        density: u64,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prelude::*;
        let mut r = Router::new(64);
        r.rebuild(hosts);
        let aid = aid_of(&format!("com.prop.app{app}"));
        let admits = |h: usize| hash_bytes(&(h as u64).to_le_bytes(), mask_seed) % 4 < density;
        let mut want_asked = Vec::new();
        let want = reference_route(&r, &aid, warm, admits, &mut want_asked);
        let mut got_asked = Vec::new();
        let got = r
            .route(&aid, warm, |h| {
                got_asked.push(h);
                admits(h)
            })
            .map(|d| (d.host, d.reason));
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_asked, want_asked);
        prop_assert_eq!(r.host_count(), hosts.len());
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Sparse, non-contiguous host sets (geo cells hold global
        /// indices): the lazy walk routes exactly like the eager one.
        #[test]
        fn lazy_walk_routes_like_the_reference(
            hosts in proptest::collection::btree_set(0usize..600, 0..40),
            app in 0u64..10_000,
            warm in proptest::collection::vec(0usize..600, 0..4),
            mask_seed in proptest::prelude::any::<u64>(),
            density in 0u64..5,
        ) {
            check_against_reference(&hosts, app, &warm, mask_seed, density)?;
        }

        /// 256 contiguous hosts from an arbitrary base, the overload
        /// shape: with density 0 every request sheds after asking each
        /// host once, in ring order.
        #[test]
        fn lazy_walk_matches_the_reference_on_256_hosts(
            base in 0usize..300,
            app in 0u64..10_000,
            mask_seed in proptest::prelude::any::<u64>(),
            density in 0u64..2,
        ) {
            let hosts: BTreeSet<usize> = (base..base + 256).collect();
            check_against_reference(&hosts, app, &[], mask_seed, density)?;
        }
    }

    #[test]
    fn routing_is_deterministic_and_stable() {
        let r = ring(&[0, 1, 2, 3]);
        let aid = aid_of("com.bench.ocr");
        let a = r.route(&aid, &[], |_| true).unwrap();
        let b = r.route(&aid, &[], |_| true).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.reason, RouteReason::Hash);
    }

    #[test]
    fn warm_host_wins_over_hash_home() {
        let r = ring(&[0, 1, 2, 3]);
        let aid = aid_of("com.bench.ocr");
        let home = r.route(&aid, &[], |_| true).unwrap().host;
        let warm = (home + 1) % 4;
        let d = r.route(&aid, &[warm], |_| true).unwrap();
        assert_eq!(d.host, warm);
        assert_eq!(d.reason, RouteReason::Affinity);
    }

    #[test]
    fn spillover_walks_the_ring_past_full_hosts() {
        let r = ring(&[0, 1, 2, 3]);
        let aid = aid_of("com.bench.chessgame");
        let home = r.route(&aid, &[], |_| true).unwrap().host;
        let d = r.route(&aid, &[], |h| h != home).unwrap();
        assert_ne!(d.host, home);
        assert_eq!(d.reason, RouteReason::Spill);
    }

    #[test]
    fn all_full_sheds() {
        let r = ring(&[0, 1]);
        assert!(r.route(&aid_of("com.bench.ocr"), &[], |_| false).is_none());
    }

    #[test]
    fn membership_change_only_remaps_lost_arcs() {
        let four = ring(&[0, 1, 2, 3]);
        let three = ring(&[0, 1, 2]);
        // Every AID routed to a surviving host keeps its placement.
        for app in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            let aid = aid_of(app);
            let before = four.route(&aid, &[], |_| true).unwrap().host;
            let after = three.route(&aid, &[], |_| true).unwrap().host;
            if before != 3 {
                assert_eq!(before, after, "surviving arc moved for {app}");
            }
        }
    }

    #[test]
    fn vnodes_spread_hosts_over_the_ring() {
        let r = ring(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.host_count(), 8);
        // Many distinct keys must not all land on one host.
        let mut hit = BTreeSet::new();
        for i in 0..64 {
            let aid = aid_of(&format!("app{i}"));
            hit.insert(r.route(&aid, &[], |_| true).unwrap().host);
        }
        assert!(hit.len() >= 6, "only {} hosts hit", hit.len());
    }
}
