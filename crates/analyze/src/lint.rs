//! Assembling flow, call-graph, and bound facts into diagnostics, plus
//! machine-readable JSON rendering.

use opd_microvm::{Program, Stmt, TakenDist};

use crate::bounds::StaticBounds;
use crate::callgraph::CallGraph;
use crate::diag::{Code, Diagnostic};
use crate::flow::{DeadKind, FlowInfo};

fn fn_anchor(program: &Program, func: opd_microvm::FuncId) -> String {
    format!("fn {} ({})", program.function(func).name(), func)
}

/// What is degenerate about a distribution, if anything.
fn degeneracy(dist: TakenDist) -> Option<&'static str> {
    match dist {
        TakenDist::Bernoulli(p) if p <= 0.0 => Some("p=0 is never taken; use `never`"),
        TakenDist::Bernoulli(p) if p >= 1.0 => Some("p=1 is always taken; use `always`"),
        TakenDist::Periodic(1) => Some("period=1 is always taken; use `always`"),
        _ => None,
    }
}

/// Runs every lint over an already-validated view of the program.
pub(crate) fn collect(
    program: &Program,
    graph: &CallGraph,
    flow: &FlowInfo,
    bounds: &StaticBounds,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // OPD-E005: structural validity (same checks the builder applies).
    for err in program.validate() {
        out.push(Diagnostic::from_build_error(program, &err));
    }

    // OPD-E002: recursion cycles without a decreasing guard.
    for cycle in graph.cycles() {
        if cycle.is_terminating() {
            continue;
        }
        let names: Vec<String> = cycle
            .members()
            .iter()
            .map(|&f| format!("`{}`", program.function(f).name()))
            .collect();
        out.push(Diagnostic::new(
            Code::UnguardedRecursion,
            fn_anchor(program, cycle.members()[0]),
            format!(
                "recursion cycle {} has a call that is not both `arg > 0`-guarded and argument-decreasing; execution may never terminate",
                names.join(" -> ")
            ),
        ));
    }

    // OPD-W001: functions no execution can reach.
    for i in 0..program.functions().len() {
        let f = program.func_id(i);
        if !flow.is_reachable(f) {
            out.push(Diagnostic::new(
                Code::UnreachableFunction,
                fn_anchor(program, f),
                format!(
                    "function `{}` is unreachable from the entry point `{}`",
                    program.function(f).name(),
                    program.function(program.entry()).name()
                ),
            ));
        }
    }

    // OPD-W003: degenerate distributions, wherever they are written.
    program.walk(|ctx, stmt| {
        let branch = match stmt {
            Stmt::Branch(b) => b,
            Stmt::If { branch, .. } => branch,
            _ => return,
        };
        if let Some(why) = degeneracy(branch.dist()) {
            out.push(Diagnostic::new(
                Code::DegenerateDistribution,
                fn_anchor(program, ctx.func()),
                format!(
                    "branch @{} has a degenerate distribution: {why}",
                    branch.offset()
                ),
            ));
        }
    });

    // OPD-W006: statically dead code.
    for dead in flow.dead_sites() {
        let message = match dead.kind {
            DeadKind::ZeroTripLoop(id) => {
                format!("loop {id} never iterates (maximum trip count is 0); its body is dead")
            }
            DeadKind::DeadThenArm(offset) => {
                format!("the taken arm of branch @{offset} can never execute")
            }
            DeadKind::DeadElseArm(offset) => {
                format!("the not-taken arm of branch @{offset} can never execute")
            }
            DeadKind::NeverEnteredGuard => {
                "an `arg > 0` guard can never hold (the argument is always 0)".to_owned()
            }
        };
        out.push(Diagnostic::new(
            Code::DeadCode,
            fn_anchor(program, dead.func),
            message,
        ));
    }

    // OPD-E004: the worst case is too large to bound. A call chain too
    // deep to follow never reached its counts, so they are not known
    // to overflow: it gets OPD-W007 with the depth the analysis saw.
    if bounds.overflowed() && !bounds.depth_capped() {
        out.push(Diagnostic::new(
            Code::BoundOverflow,
            "program".to_owned(),
            "worst-case branch/event bounds overflow u64; no meaningful static bound exists",
        ));
    } else if bounds.exceeds_depth_limit() {
        // OPD-W007 — only meaningful when the depth is finite or capped.
        const _: () = assert!(crate::absint::DEPTH_CAP == 1024, "the message quotes it");
        let depth = if bounds.depth_capped() {
            "at least 1,024".to_owned()
        } else {
            bounds.call_depth().to_string()
        };
        out.push(Diagnostic::new(
            Code::CallDepthBound,
            "program".to_owned(),
            format!(
                "worst-case call depth {depth} exceeds the interpreter's default limit of {}; runs would abort with CallDepthExceeded",
                opd_microvm::Interpreter::DEFAULT_DEPTH_LIMIT
            ),
        ));
    }

    out
}

/// Escapes a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a diagnostic list as a JSON array.
#[must_use]
pub(crate) fn diagnostics_json(diagnostics: &[Diagnostic]) -> String {
    let items: Vec<String> = diagnostics
        .iter()
        .map(|d| {
            format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"location\":\"{}\",\"message\":\"{}\"}}",
                d.code(),
                d.severity(),
                json_escape(d.location()),
                json_escape(d.message())
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
