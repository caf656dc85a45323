//! Mapping pipeline threads onto cache groups.
//!
//! A pipeline of `n_teams * team_size` threads is laid out so that team
//! `k` occupies `team_size` CPUs of cache group `k` (paper §1.3: "a team
//! runs on cores sharing a cache"). Teams may be smaller than the whole
//! cache group (the paper mentions but does not explore this; we support
//! it because hosts rarely look like the paper's testbed).

use super::machine::Machine;

/// Thread-to-CPU assignment for a pipelined run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TeamLayout {
    /// `cpus[i]` is the CPU suggested for pipeline thread `i`; `None` when
    /// the machine has fewer distinct CPUs than threads (oversubscribed
    /// test / simulation runs).
    pub cpus: Vec<Option<usize>>,
    pub team_size: usize,
    pub n_teams: usize,
    /// CPU reserved for a dedicated communication thread (the paper's
    /// §2.3 proposal: one core drives the halo traffic while the
    /// remaining `cores − 1` advance the interior). `None` when no core
    /// was carved out — compute teams then own the whole machine.
    pub comm_core: Option<usize>,
}

impl TeamLayout {
    /// Lay out `n_teams` teams of `team_size` threads on `machine`.
    ///
    /// Teams are assigned to cache groups round-robin; threads within a
    /// team take consecutive CPUs of their group. When a group is smaller
    /// than `team_size` or there are more teams than groups, the layout
    /// wraps around — still correct, just without the cache benefit.
    pub fn new(machine: &Machine, team_size: usize, n_teams: usize) -> Self {
        assert!(team_size >= 1 && n_teams >= 1);
        let cpus = assign(&machine.cache_groups(), team_size, n_teams);
        Self {
            cpus,
            team_size,
            n_teams,
            comm_core: None,
        }
    }

    /// Like [`TeamLayout::new`], but reserve one CPU for a dedicated
    /// communication thread so the compute teams are sized to
    /// `cores − 1` (the paper's distributed-overlap placement).
    ///
    /// The comm core is the machine's last CPU — the tail of the last
    /// cache group, so team 0 keeps a full group to itself. When the
    /// machine has a single CPU nothing can be carved out: the layout
    /// degenerates to [`TeamLayout::new`] with `comm_core = None` (the
    /// comm thread then time-shares, which is still correct, just
    /// without the wall-clock overlap).
    pub fn with_comm_core(machine: &Machine, team_size: usize, n_teams: usize) -> Self {
        assert!(team_size >= 1 && n_teams >= 1);
        let mut groups = machine.cache_groups();
        let comm_core = if machine.num_cpus() >= 2 {
            let core = groups.last_mut().and_then(|g| g.pop());
            groups.retain(|g| !g.is_empty());
            core
        } else {
            None
        };
        let cpus = assign(&groups, team_size, n_teams);
        Self {
            cpus,
            team_size,
            n_teams,
            comm_core,
        }
    }

    /// Total pipeline threads.
    pub fn threads(&self) -> usize {
        self.team_size * self.n_teams
    }

    /// Team index of pipeline thread `i`.
    #[cfg(test)]
    fn team_of(&self, i: usize) -> usize {
        i / self.team_size
    }

    /// True if distinct threads had to share CPUs (or got no pin at all).
    /// A carved-out comm core counts as occupied: compute threads landing
    /// on it would defeat the overlap.
    #[cfg(test)]
    fn oversubscribed(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        if let Some(c) = self.comm_core {
            seen.insert(c);
        }
        for c in &self.cpus {
            match c {
                None => return true,
                Some(c) => {
                    if !seen.insert(*c) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Round-robin team → cache-group assignment shared by both
/// constructors; `groups` is the machine's cache groups minus any
/// carved-out comm core.
fn assign(groups: &[Vec<usize>], team_size: usize, n_teams: usize) -> Vec<Option<usize>> {
    if groups.is_empty() {
        return vec![None; team_size * n_teams];
    }
    let num_cpus: usize = groups.iter().map(Vec::len).sum();
    let mut cpus = Vec::with_capacity(team_size * n_teams);
    for team in 0..n_teams {
        let group = &groups[team % groups.len()];
        for member in 0..team_size {
            if groups.len() >= n_teams && group.len() >= team_size {
                cpus.push(Some(group[member % group.len()]));
            } else if num_cpus >= team_size * n_teams {
                // Fall back to linear placement over all CPUs.
                let linear = team * team_size + member;
                let all: Vec<usize> = groups.iter().flatten().copied().collect();
                cpus.push(all.get(linear).copied());
            } else {
                cpus.push(None);
            }
        }
    }
    cpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nehalem_socket_team() {
        // One team of 4 on the paper's machine: socket 0's CPUs.
        let m = Machine::nehalem_ep();
        let l = TeamLayout::new(&m, 4, 1);
        assert_eq!(l.cpus, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert!(!l.oversubscribed());
    }

    #[test]
    fn nehalem_node_two_teams() {
        // Two teams of 4: one per socket — the paper's node configuration.
        let m = Machine::nehalem_ep();
        let l = TeamLayout::new(&m, 4, 2);
        assert_eq!(l.threads(), 8);
        assert_eq!(&l.cpus[0..4], &[Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(&l.cpus[4..8], &[Some(4), Some(5), Some(6), Some(7)]);
        assert_eq!(l.team_of(0), 0);
        assert_eq!(l.team_of(5), 1);
        assert!(!l.oversubscribed());
    }

    #[test]
    fn smaller_team_than_group() {
        let m = Machine::nehalem_ep();
        let l = TeamLayout::new(&m, 2, 2);
        assert_eq!(l.cpus, vec![Some(0), Some(1), Some(4), Some(5)]);
        assert!(!l.oversubscribed());
    }

    #[test]
    fn oversubscription_detected() {
        let m = Machine::flat(2);
        let l = TeamLayout::new(&m, 4, 2);
        assert_eq!(l.threads(), 8);
        assert!(l.oversubscribed());
    }

    #[test]
    fn more_teams_than_groups_linear_fallback() {
        let m = Machine::flat(8);
        let l = TeamLayout::new(&m, 2, 4);
        // 8 threads on 8 cpus: all pinned, no sharing.
        assert_eq!(l.threads(), 8);
        assert!(!l.oversubscribed());
    }

    #[test]
    fn comm_core_carved_from_the_last_group() {
        // Nehalem node, one 3-thread team per socket: CPU 7 goes to the
        // comm thread, socket 1's team uses CPUs 4..6.
        let m = Machine::nehalem_ep();
        let l = TeamLayout::with_comm_core(&m, 3, 2);
        assert_eq!(l.comm_core, Some(7));
        assert_eq!(&l.cpus[0..3], &[Some(0), Some(1), Some(2)]);
        assert_eq!(&l.cpus[3..6], &[Some(4), Some(5), Some(6)]);
        assert!(!l.oversubscribed());
        assert!(
            l.cpus.iter().all(|c| *c != l.comm_core),
            "no compute thread may land on the comm core"
        );
    }

    #[test]
    fn comm_core_counts_toward_oversubscription() {
        // 4 CPUs, comm core takes one: a 4-thread compute team must wrap.
        let m = Machine::flat(4);
        let full = TeamLayout::new(&m, 4, 1);
        assert!(!full.oversubscribed());
        let carved = TeamLayout::with_comm_core(&m, 4, 1);
        assert_eq!(carved.comm_core, Some(3));
        assert!(carved.oversubscribed(), "cores − 1 left for 4 threads");
        let fitting = TeamLayout::with_comm_core(&m, 3, 1);
        assert!(!fitting.oversubscribed());
    }

    #[test]
    fn single_cpu_machine_cannot_carve() {
        let m = Machine::flat(1);
        let l = TeamLayout::with_comm_core(&m, 1, 1);
        assert_eq!(l.comm_core, None);
        assert_eq!(l.cpus, vec![Some(0)]);
    }
}
