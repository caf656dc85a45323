//! Machine descriptions: sockets, cores, caches.

/// Sharing scope of a cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheScope {
    /// Private to one core (L1/L2 on Nehalem).
    PerCore,
    /// Shared by every core of a socket (Nehalem's L3) — the "cache
    /// group" that hosts one pipeline team.
    PerSocket,
}

/// One cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheLevel {
    pub level: u8,
    pub size_bytes: usize,
    pub scope: CacheScope,
}

/// One socket (NUMA locality domain) with its logical CPU ids.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Socket {
    pub id: usize,
    pub cpus: Vec<usize>,
}

/// One ccNUMA locality domain: the set of logical CPUs whose memory
/// controller owns pages first-touched by threads running on them.
/// Usually one per socket, but sub-NUMA clustering (and some AMD parts)
/// split a socket into several domains — which is why the machine model
/// carries them separately from [`Socket`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NumaDomain {
    pub id: usize,
    pub cpus: Vec<usize>,
}

/// A shared-memory node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Machine {
    pub name: String,
    pub sockets: Vec<Socket>,
    pub caches: Vec<CacheLevel>,
    /// Detected ccNUMA domains; empty means "not detected", in which
    /// case [`Machine::numa_nodes`] falls back to sockets-as-nodes (the
    /// right model for every machine the paper considers).
    pub numa: Vec<NumaDomain>,
}

impl Machine {
    /// Total number of logical CPUs.
    pub fn num_cpus(&self) -> usize {
        self.sockets.iter().map(|s| s.cpus.len()).sum()
    }

    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Cores per socket (assumes homogeneous sockets, asserted).
    pub fn cores_per_socket(&self) -> usize {
        let n = self.sockets.first().map(|s| s.cpus.len()).unwrap_or(0);
        debug_assert!(self.sockets.iter().all(|s| s.cpus.len() == n));
        n
    }

    /// The outermost shared cache (the cache-group cache); `None` when the
    /// machine has no shared cache (then teams degrade to size 1).
    pub fn shared_cache(&self) -> Option<CacheLevel> {
        self.caches
            .iter()
            .filter(|c| c.scope == CacheScope::PerSocket)
            .max_by_key(|c| c.level)
            .copied()
    }

    /// Cache groups: the sets of CPUs sharing the outermost shared cache.
    /// With per-socket sharing this is one group per socket; without any
    /// shared cache, each CPU is its own group.
    pub fn cache_groups(&self) -> Vec<Vec<usize>> {
        if self.shared_cache().is_some() {
            self.sockets.iter().map(|s| s.cpus.clone()).collect()
        } else {
            self.sockets
                .iter()
                .flat_map(|s| s.cpus.iter().map(|&c| vec![c]))
                .collect()
        }
    }

    /// The machine's ccNUMA locality domains: the detected domains when
    /// available, else one domain per socket (sockets-as-nodes — the
    /// model of the paper's Nehalem EP testbed, where each socket owns
    /// its memory controller).
    pub fn numa_nodes(&self) -> Vec<NumaDomain> {
        if !self.numa.is_empty() {
            return self.numa.clone();
        }
        self.sockets
            .iter()
            .map(|s| NumaDomain {
                id: s.id,
                cpus: s.cpus.clone(),
            })
            .collect()
    }

    /// Number of ccNUMA locality domains (≥ 1 on any machine with CPUs).
    pub fn num_numa_nodes(&self) -> usize {
        if self.numa.is_empty() {
            self.sockets.len()
        } else {
            self.numa.len()
        }
    }

    /// Compact, stable description of the topology: socket count, cores
    /// per socket, the outermost shared cache, and the NUMA-domain
    /// count. This is the machine half of a plan-cache fingerprint
    /// (`tb-plan`), so it must be deterministic across detect runs on
    /// the same host and must change whenever the team geometry, cache
    /// capacity, or page-placement landscape the tuner saw does.
    pub fn signature(&self) -> String {
        let numa = self.num_numa_nodes();
        match self.shared_cache() {
            Some(c) => format!(
                "{}x{}+L{}:{}+n{numa}",
                self.num_sockets(),
                self.cores_per_socket(),
                c.level,
                c.size_bytes
            ),
            None => format!(
                "{}x{}+nocache+n{numa}",
                self.num_sockets(),
                self.cores_per_socket()
            ),
        }
    }

    /// The sub-machine containing exactly the listed logical CPUs:
    /// sockets keep their ids but lose every CPU outside `cores`, and
    /// sockets left empty disappear. The cache hierarchy is inherited —
    /// a slice of a socket still sits behind that socket's shared cache.
    ///
    /// This is how a multi-tenant scheduler hands each tenant a disjoint
    /// core set: slicing along [`Machine::cache_groups`] boundaries
    /// yields sub-machines whose [`Machine::signature`] is identical for
    /// identical slices, so plans tuned on one slice replay warm on any
    /// other slice of the same shape.
    ///
    /// # Panics
    /// Panics when no listed core exists on this machine (an empty
    /// machine cannot host a team).
    pub fn restrict(&self, cores: &[usize]) -> Machine {
        let keep: std::collections::HashSet<usize> = cores.iter().copied().collect();
        let sockets: Vec<Socket> = self
            .sockets
            .iter()
            .filter_map(|s| {
                let cpus: Vec<usize> = s
                    .cpus
                    .iter()
                    .copied()
                    .filter(|c| keep.contains(c))
                    .collect();
                (!cpus.is_empty()).then_some(Socket { id: s.id, cpus })
            })
            .collect();
        assert!(
            !sockets.is_empty(),
            "Machine::restrict: none of {cores:?} exists on {}",
            self.name
        );
        // Detected NUMA domains shrink with the slice (domains left
        // without CPUs disappear); an empty list stays empty, so the
        // sockets-as-nodes fallback keeps tracking the kept sockets.
        let numa: Vec<NumaDomain> = self
            .numa
            .iter()
            .filter_map(|d| {
                let cpus: Vec<usize> = d
                    .cpus
                    .iter()
                    .copied()
                    .filter(|c| keep.contains(c))
                    .collect();
                (!cpus.is_empty()).then_some(NumaDomain { id: d.id, cpus })
            })
            .collect();
        Machine {
            name: format!("{}[{} cores]", self.name, cores.len()),
            sockets,
            caches: self.caches.clone(),
            numa,
        }
    }

    /// The paper's test system: dual-socket Intel Nehalem EP (Xeon 5550),
    /// 4 cores/socket @ 2.66 GHz, shared 8 MB L3 per socket, 256 kB L2 and
    /// 32 kB L1D per core (§1.1).
    pub fn nehalem_ep() -> Machine {
        Machine {
            name: "Nehalem EP (Xeon 5550)".into(),
            sockets: vec![
                Socket {
                    id: 0,
                    cpus: (0..4).collect(),
                },
                Socket {
                    id: 1,
                    cpus: (4..8).collect(),
                },
            ],
            caches: vec![
                CacheLevel {
                    level: 1,
                    size_bytes: 32 * 1024,
                    scope: CacheScope::PerCore,
                },
                CacheLevel {
                    level: 2,
                    size_bytes: 256 * 1024,
                    scope: CacheScope::PerCore,
                },
                CacheLevel {
                    level: 3,
                    size_bytes: 8 * 1024 * 1024,
                    scope: CacheScope::PerSocket,
                },
            ],
            numa: Vec::new(),
        }
    }

    /// The older Core 2 quad design the paper contrasts against (refs. 2 and 10):
    /// two dual-core pairs, each pair sharing a 6 MB L2 — more
    /// bandwidth-starved, hence more to gain from temporal blocking.
    /// Modeled here as 2 "sockets" of 2 cores sharing L2.
    #[cfg(test)]
    fn core2_quad() -> Machine {
        Machine {
            name: "Core 2 Quad".into(),
            sockets: vec![
                Socket {
                    id: 0,
                    cpus: vec![0, 1],
                },
                Socket {
                    id: 1,
                    cpus: vec![2, 3],
                },
            ],
            caches: vec![
                CacheLevel {
                    level: 1,
                    size_bytes: 32 * 1024,
                    scope: CacheScope::PerCore,
                },
                CacheLevel {
                    level: 2,
                    size_bytes: 6 * 1024 * 1024,
                    scope: CacheScope::PerSocket,
                },
            ],
            numa: Vec::new(),
        }
    }

    /// A flat fallback machine: `n` CPUs in one socket with a nominal
    /// shared cache. Used when detection fails.
    pub fn flat(n: usize) -> Machine {
        Machine {
            name: format!("flat-{n}"),
            sockets: vec![Socket {
                id: 0,
                cpus: (0..n.max(1)).collect(),
            }],
            caches: vec![CacheLevel {
                level: 3,
                size_bytes: 8 * 1024 * 1024,
                scope: CacheScope::PerSocket,
            }],
            numa: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nehalem_matches_paper() {
        let m = Machine::nehalem_ep();
        assert_eq!(m.num_sockets(), 2);
        assert_eq!(m.num_cpus(), 8);
        assert_eq!(m.cores_per_socket(), 4);
        let l3 = m.shared_cache().unwrap();
        assert_eq!(l3.level, 3);
        assert_eq!(l3.size_bytes, 8 * 1024 * 1024);
        assert_eq!(m.cache_groups(), vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    }

    #[test]
    fn core2_has_shared_l2() {
        let m = Machine::core2_quad();
        let c = m.shared_cache().unwrap();
        assert_eq!(c.level, 2);
        assert_eq!(m.cache_groups().len(), 2);
    }

    #[test]
    fn flat_machine_one_group() {
        let m = Machine::flat(6);
        assert_eq!(m.num_cpus(), 6);
        assert_eq!(m.cache_groups(), vec![vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn signature_is_stable_and_discriminating() {
        let m = Machine::nehalem_ep();
        assert_eq!(m.signature(), "2x4+L3:8388608+n2");
        assert_eq!(m.signature(), Machine::nehalem_ep().signature());
        assert_ne!(m.signature(), Machine::core2_quad().signature());
        let mut bare = Machine::flat(3);
        bare.caches.clear();
        assert_eq!(bare.signature(), "1x3+nocache+n1");
    }

    #[test]
    fn restrict_keeps_only_listed_cores() {
        let m = Machine::nehalem_ep();
        let sub = m.restrict(&[4, 5, 6, 7]);
        assert_eq!(sub.num_sockets(), 1);
        assert_eq!(sub.sockets[0].id, 1);
        assert_eq!(sub.sockets[0].cpus, vec![4, 5, 6, 7]);
        assert_eq!(sub.shared_cache(), m.shared_cache());
        assert_eq!(sub.cache_groups(), vec![vec![4, 5, 6, 7]]);
    }

    #[test]
    fn identical_slices_share_a_signature() {
        // The scheduler's warm-plan transfer depends on this: two slices
        // of the same shape fingerprint identically.
        let m = Machine::nehalem_ep();
        let a = m.restrict(&[0, 1, 2, 3]);
        let b = m.restrict(&[4, 5, 6, 7]);
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.signature(), "1x4+L3:8388608+n1");
        // A different shape is a different signature.
        assert_ne!(m.restrict(&[0, 1]).signature(), a.signature());
    }

    #[test]
    fn restrict_can_straddle_sockets() {
        let m = Machine::nehalem_ep();
        let sub = m.restrict(&[2, 3, 4, 5]);
        assert_eq!(sub.num_sockets(), 2);
        assert_eq!(sub.sockets[0].cpus, vec![2, 3]);
        assert_eq!(sub.sockets[1].cpus, vec![4, 5]);
        assert_eq!(sub.cache_groups(), vec![vec![2, 3], vec![4, 5]]);
    }

    #[test]
    #[should_panic(expected = "Machine::restrict")]
    fn restrict_to_unknown_cores_panics() {
        let _ = Machine::flat(2).restrict(&[7, 9]);
    }

    #[test]
    fn numa_fallback_is_sockets_as_nodes() {
        let m = Machine::nehalem_ep();
        assert!(m.numa.is_empty(), "presets carry no detected domains");
        assert_eq!(m.num_numa_nodes(), 2);
        let nodes = m.numa_nodes();
        assert_eq!(nodes[0].cpus, vec![0, 1, 2, 3]);
        assert_eq!(nodes[1].cpus, vec![4, 5, 6, 7]);
        assert_eq!(Machine::flat(6).num_numa_nodes(), 1);
    }

    #[test]
    fn detected_numa_domains_override_the_fallback() {
        // Sub-NUMA clustering: one socket, two locality domains.
        let mut m = Machine::flat(8);
        m.numa = vec![
            NumaDomain {
                id: 0,
                cpus: vec![0, 1, 2, 3],
            },
            NumaDomain {
                id: 1,
                cpus: vec![4, 5, 6, 7],
            },
        ];
        assert_eq!(m.num_numa_nodes(), 2);
        // And the signature discriminates on the node count.
        assert_ne!(m.signature(), Machine::flat(8).signature());
        assert!(m.signature().ends_with("+n2"));
    }

    #[test]
    fn restrict_keeps_only_the_slices_numa_nodes() {
        let m = Machine::nehalem_ep();
        // Fallback domains track the kept sockets.
        let sub = m.restrict(&[4, 5]);
        assert_eq!(sub.num_numa_nodes(), 1);
        assert_eq!(sub.numa_nodes()[0].id, 1);
        assert_eq!(sub.numa_nodes()[0].cpus, vec![4, 5]);
        // Detected domains shrink the same way, empties dropped.
        let mut d = Machine::nehalem_ep();
        d.numa = vec![
            NumaDomain {
                id: 0,
                cpus: (0..4).collect(),
            },
            NumaDomain {
                id: 1,
                cpus: (4..8).collect(),
            },
        ];
        let sub = d.restrict(&[2, 3]);
        assert_eq!(
            sub.numa,
            vec![NumaDomain {
                id: 0,
                cpus: vec![2, 3]
            }]
        );
        let straddle = d.restrict(&[3, 4]);
        assert_eq!(straddle.num_numa_nodes(), 2);
    }

    #[test]
    fn machine_without_shared_cache_splits_groups() {
        let mut m = Machine::flat(3);
        m.caches.clear();
        assert!(m.shared_cache().is_none());
        assert_eq!(m.cache_groups(), vec![vec![0], vec![1], vec![2]]);
    }
}
