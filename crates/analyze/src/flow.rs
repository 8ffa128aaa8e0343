//! Interprocedural flow facts: which functions are reachable from the
//! entry, the largest argument each can receive, which branch sites can
//! execute, and which code is statically dead.
//!
//! The analysis is a monotone worklist fixpoint over per-function
//! maximum arguments. Argument expressions never increase their input
//! (`arg-1`, `arg/2`, constants, bounded draws), so the lattice height
//! is small and the fixpoint converges quickly; a relaxation cap
//! saturates pathological chains to the global argument bound, which is
//! always sound.

use opd_microvm::{ArgExpr, FuncId, Program, Stmt, TakenDist};
use opd_trace::LoopId;

/// Which way a branch can go, statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TakenSet {
    AlwaysTaken,
    NeverTaken,
    Both,
}

/// The directions a site with distribution `dist` can take. (The
/// builder rejects `Periodic(0)`, so every period ≥ 2 goes both ways.)
pub(crate) fn taken_set(dist: TakenDist) -> TakenSet {
    match dist {
        TakenDist::Always | TakenDist::Periodic(1) => TakenSet::AlwaysTaken,
        TakenDist::Never => TakenSet::NeverTaken,
        TakenDist::Bernoulli(p) if p <= 0.0 => TakenSet::NeverTaken,
        TakenDist::Bernoulli(p) if p >= 1.0 => TakenSet::AlwaysTaken,
        TakenDist::Bernoulli(_) | TakenDist::Alternating | TakenDist::Periodic(_) => TakenSet::Both,
    }
}

/// Number of distinct profile elements one execution of a site can
/// produce (the taken bit is part of the element identity).
fn outcomes(dist: TakenDist) -> u64 {
    match taken_set(dist) {
        TakenSet::AlwaysTaken | TakenSet::NeverTaken => 1,
        TakenSet::Both => 2,
    }
}

/// Upper bound of an argument expression given the caller's bound.
fn arg_upper_bound(expr: ArgExpr, caller_max: u32) -> u32 {
    match expr {
        ArgExpr::Const(v) => v,
        ArgExpr::Dec => caller_max.saturating_sub(1),
        ArgExpr::Half => caller_max / 2,
        ArgExpr::Draw(_, hi) => hi,
    }
}

/// What kind of dead code a [`DeadSite`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeadKind {
    /// A loop whose maximum trip count is zero: the body never runs.
    ZeroTripLoop(LoopId),
    /// The taken arm of a branch that is never taken (site offset).
    DeadThenArm(u32),
    /// The not-taken arm of a branch that is always taken (site offset).
    DeadElseArm(u32),
    /// An `arg > 0` guard in a function whose argument is always zero.
    NeverEnteredGuard,
}

/// One piece of statically dead code, anchored to its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadSite {
    /// The function containing the dead code.
    pub func: FuncId,
    /// What is dead, and why.
    pub kind: DeadKind,
}

/// The interprocedural flow facts of a [`Program`].
#[derive(Debug, Clone)]
pub struct FlowInfo {
    reachable: Vec<bool>,
    max_arg: Vec<u32>,
    alphabet_bound: u64,
    executable_sites: u64,
    dead: Vec<DeadSite>,
}

impl FlowInfo {
    /// Runs the fixpoint and the executable-site scan.
    #[must_use]
    pub fn compute(program: &Program) -> Self {
        let n = program.functions().len();
        let mut max_arg: Vec<Option<u32>> = vec![None; n];
        let mut worklist: Vec<usize> = Vec::new();
        let mut relaxations = vec![0u32; n];
        // Sound saturation value: no argument expression can exceed
        // every constant, draw bound, and the entry argument.
        let global_bound = global_arg_bound(program);
        // Generous: honest chains relax each function a handful of
        // times; only adversarial `arg-1` ladders hit the cap.
        let relax_cap = 64 + 4 * n as u32;

        let entry = program.entry().index() as usize;
        max_arg[entry] = Some(program.entry_arg());
        worklist.push(entry);

        while let Some(f) = worklist.pop() {
            let a = max_arg[f].expect("worklist members are reachable");
            let body = program.function(program.func_id(f)).body();
            scan_executable(body, a, &mut |callee, expr| {
                let idx = callee.index() as usize;
                let mut v = arg_upper_bound(expr, a);
                if relaxations[idx] >= relax_cap {
                    v = global_bound;
                }
                if max_arg[idx].map_or(true, |m| m < v) {
                    max_arg[idx] = Some(v);
                    relaxations[idx] += 1;
                    if !worklist.contains(&idx) {
                        worklist.push(idx);
                    }
                }
            });
        }

        // Final scan with the fixpoint arguments: count executable
        // site outcomes and collect dead code.
        let mut alphabet_bound = 0u64;
        let mut executable_sites = 0u64;
        let mut dead = Vec::new();
        for (f, arg) in max_arg.iter().enumerate() {
            let Some(a) = *arg else { continue };
            let id = program.func_id(f);
            let body = program.function(id).body();
            scan_sites(
                body,
                a,
                &mut |dist| {
                    alphabet_bound += outcomes(dist);
                    executable_sites += 1;
                },
                &mut |kind| dead.push(DeadSite { func: id, kind }),
            );
        }

        FlowInfo {
            reachable: max_arg.iter().map(Option::is_some).collect(),
            max_arg: max_arg.into_iter().map(Option::unwrap_or_default).collect(),
            alphabet_bound,
            executable_sites,
            dead,
        }
    }

    /// `true` if the function can execute in some run.
    #[must_use]
    pub fn is_reachable(&self, func: FuncId) -> bool {
        self.reachable[func.index() as usize]
    }

    /// The largest argument the function can be called with (0 for
    /// unreachable functions).
    #[must_use]
    pub fn max_arg(&self, func: FuncId) -> u32 {
        self.max_arg[func.index() as usize]
    }

    /// Upper bound on the number of distinct profile elements any
    /// execution can produce: the sum over executable branch sites of
    /// their possible taken outcomes.
    #[must_use]
    pub fn alphabet_bound(&self) -> u64 {
        self.alphabet_bound
    }

    /// Number of branch sites that can execute.
    #[must_use]
    pub fn executable_sites(&self) -> u64 {
        self.executable_sites
    }

    /// The statically dead code found.
    #[must_use]
    pub fn dead_sites(&self) -> &[DeadSite] {
        &self.dead
    }
}

/// The largest argument value any call in the program can produce:
/// arguments are only ever copied down from the entry argument, taken
/// from constants, or drawn from bounded ranges, then decreased.
fn global_arg_bound(program: &Program) -> u32 {
    let mut bound = program.entry_arg();
    program.walk(|_, stmt| {
        if let Stmt::Call { arg, .. } = stmt {
            match arg {
                ArgExpr::Const(v) => bound = bound.max(*v),
                ArgExpr::Draw(_, hi) => bound = bound.max(*hi),
                ArgExpr::Dec | ArgExpr::Half => {}
            }
        }
    });
    bound
}

/// Walks only the statements that can execute when the enclosing
/// function's argument is at most `a`, reporting each executable call.
fn scan_executable(stmts: &[Stmt], a: u32, on_call: &mut impl FnMut(FuncId, ArgExpr)) {
    for stmt in stmts {
        match stmt {
            Stmt::Branch(_) => {}
            Stmt::Loop { trip, body, .. } => {
                if trip.max_trip(a) > 0 {
                    scan_executable(body, a, on_call);
                }
            }
            Stmt::Call { callee, arg } => on_call(*callee, *arg),
            Stmt::If {
                branch,
                then_body,
                else_body,
            } => match taken_set(branch.dist()) {
                TakenSet::AlwaysTaken => scan_executable(then_body, a, on_call),
                TakenSet::NeverTaken => scan_executable(else_body, a, on_call),
                TakenSet::Both => {
                    scan_executable(then_body, a, on_call);
                    scan_executable(else_body, a, on_call);
                }
            },
            Stmt::IfArgPositive { body } => {
                if a > 0 {
                    scan_executable(body, a, on_call);
                }
            }
        }
    }
}

/// Like [`scan_executable`], but reporting executable branch sites and
/// dead code instead of calls.
fn scan_sites(
    stmts: &[Stmt],
    a: u32,
    on_site: &mut impl FnMut(TakenDist),
    on_dead: &mut impl FnMut(DeadKind),
) {
    for stmt in stmts {
        match stmt {
            Stmt::Branch(b) => on_site(b.dist()),
            Stmt::Loop { id, trip, body } => {
                if trip.max_trip(a) == 0 {
                    on_dead(DeadKind::ZeroTripLoop(*id));
                } else {
                    scan_sites(body, a, on_site, on_dead);
                }
            }
            Stmt::Call { .. } => {}
            Stmt::If {
                branch,
                then_body,
                else_body,
            } => {
                on_site(branch.dist());
                match taken_set(branch.dist()) {
                    TakenSet::AlwaysTaken => {
                        if !else_body.is_empty() {
                            on_dead(DeadKind::DeadElseArm(branch.offset()));
                        }
                        scan_sites(then_body, a, on_site, on_dead);
                    }
                    TakenSet::NeverTaken => {
                        if !then_body.is_empty() {
                            on_dead(DeadKind::DeadThenArm(branch.offset()));
                        }
                        scan_sites(else_body, a, on_site, on_dead);
                    }
                    TakenSet::Both => {
                        scan_sites(then_body, a, on_site, on_dead);
                        scan_sites(else_body, a, on_site, on_dead);
                    }
                }
            }
            Stmt::IfArgPositive { body } => {
                if a == 0 {
                    if !body.is_empty() {
                        on_dead(DeadKind::NeverEnteredGuard);
                    }
                } else {
                    scan_sites(body, a, on_site, on_dead);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opd_microvm::{ProgramBuilder, Trip};

    #[test]
    fn unreachable_function_detected() {
        let mut b = ProgramBuilder::new();
        let orphan = b.declare("orphan");
        let main = b.declare("main");
        b.define(orphan, |f| {
            f.branch(TakenDist::Always);
        });
        b.define(main, |f| {
            f.branch(TakenDist::Always);
        });
        let p = b.entry(main).build().unwrap();
        let flow = FlowInfo::compute(&p);
        assert!(!flow.is_reachable(orphan));
        assert!(flow.is_reachable(main));
        assert_eq!(flow.alphabet_bound(), 1); // only main's Always site
    }

    #[test]
    fn max_arg_propagates_through_calls() {
        let mut b = ProgramBuilder::new();
        let leaf = b.declare("leaf");
        let mid = b.declare("mid");
        let main = b.declare("main");
        b.define(leaf, |f| {
            f.branch(TakenDist::Always);
        });
        b.define(mid, |f| {
            f.call(leaf, ArgExpr::Half);
        });
        b.define(main, |f| {
            f.call(mid, ArgExpr::Const(9));
            f.call(leaf, ArgExpr::Draw(2, 6));
        });
        let p = b.entry(main).entry_arg(100).build().unwrap();
        let flow = FlowInfo::compute(&p);
        assert_eq!(flow.max_arg(main), 100);
        assert_eq!(flow.max_arg(mid), 9);
        // max(Const 6, Half of 9) = 6.
        assert_eq!(flow.max_arg(leaf), 6);
    }

    #[test]
    fn zero_trip_loop_and_guard_reported_dead() {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.repeat(Trip::Fixed(0), |l| {
                l.branch(TakenDist::Always);
            });
            f.if_arg_positive(|g| {
                g.branch(TakenDist::Always);
            });
            f.branch(TakenDist::Bernoulli(0.5));
        });
        let p = b.build().unwrap(); // entry_arg defaults to 0
        let flow = FlowInfo::compute(&p);
        let kinds: Vec<DeadKind> = flow.dead_sites().iter().map(|d| d.kind).collect();
        assert!(matches!(kinds[0], DeadKind::ZeroTripLoop(_)));
        assert!(matches!(kinds[1], DeadKind::NeverEnteredGuard));
        // Only the live Bernoulli site counts, both outcomes.
        assert_eq!(flow.alphabet_bound(), 2);
        assert_eq!(flow.executable_sites(), 1);
    }

    #[test]
    fn dead_branch_arms_reported() {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.cond(
                TakenDist::Always,
                |t| {
                    t.branch(TakenDist::Never);
                },
                |e| {
                    e.branch(TakenDist::Always);
                },
            );
            f.cond(
                TakenDist::Bernoulli(0.0),
                |t| {
                    t.branch(TakenDist::Always);
                },
                |_| {},
            );
        });
        let p = b.build().unwrap();
        let flow = FlowInfo::compute(&p);
        let kinds: Vec<DeadKind> = flow.dead_sites().iter().map(|d| d.kind).collect();
        assert_eq!(kinds.len(), 2);
        // Offsets: guard @0, then-arm @1, else-arm @2, second guard @3.
        assert!(matches!(kinds[0], DeadKind::DeadElseArm(0)));
        assert!(matches!(kinds[1], DeadKind::DeadThenArm(3)));
        // Guards: Always (1) + Bernoulli(0) (1); live arms: Never (1).
        assert_eq!(flow.alphabet_bound(), 3);
    }

    #[test]
    fn alternating_and_periodic_count_two_outcomes() {
        let mut b = ProgramBuilder::new();
        let main = b.declare("main");
        b.define(main, |f| {
            f.branch(TakenDist::Alternating);
            f.branch(TakenDist::Periodic(3));
            f.branch(TakenDist::Periodic(1)); // fires every time: 1 outcome
        });
        let flow = FlowInfo::compute(&b.build().unwrap());
        assert_eq!(flow.alphabet_bound(), 2 + 2 + 1);
    }

    #[test]
    fn workloads_have_no_dead_code_and_tight_alphabets() {
        for w in opd_microvm::workloads::Workload::ALL {
            let p = w.program(1);
            let flow = FlowInfo::compute(&p);
            assert!(flow.dead_sites().is_empty(), "{w}: {:?}", flow.dead_sites());
            for i in 0..p.functions().len() {
                assert!(flow.is_reachable(p.func_id(i)), "{w}: f{i} unreachable");
            }
            assert!(flow.alphabet_bound() <= 2 * p.site_count() as u64, "{w}");
        }
    }
}
