//! Correctness checks on what `esvm` printed. Each returns `Err` with a
//! description; a run with any failed check reports no numbers.

use crate::inputs::Line;
use esvm_core::OnlineStats;
use esvm_exper::journal::Checkpoint;
use esvm_simcore::{AllocationProblem, Assignment, ServerId};

/// Checks that `reply` is the answer `line` is owed: same verb family,
/// same id echoed, no `ERR`. Returns the server of a `PLACED` reply.
fn reply_to(line: &Line, reply: &str) -> Result<Option<u32>, String> {
    let bad = || Err(format!("{:?} got reply {reply:?}", line.wire()));
    let mut words = reply.split(' ');
    match line {
        Line::Req(vm) => {
            let verb = words.next();
            if words.next() != Some(vm.id().0.to_string().as_str()) {
                return bad();
            }
            match (verb, words.next(), words.next()) {
                (Some("PLACED"), Some(server), None) => match server.parse() {
                    Ok(s) => Ok(Some(s)),
                    Err(_) => bad(),
                },
                (Some("REJECTED"), None, None) => Ok(None),
                _ => bad(),
            }
        }
        Line::Down(s) => {
            if words.next() == Some("DOWNED") && words.next() == Some(s.to_string().as_str()) {
                Ok(None)
            } else {
                bad()
            }
        }
        Line::Up(s) if reply == format!("UPPED {s}") => Ok(None),
        Line::Stats if reply.starts_with("STATS requests=") => Ok(None),
        _ => bad(),
    }
}

/// Checks one reply per line, in order, and returns the placement
/// vector (VM id → server) the `PLACED` replies describe.
pub fn replies(
    lines: &[Line],
    replies: &[String],
    n_vms: usize,
) -> Result<Vec<Option<ServerId>>, String> {
    if replies.len() != lines.len() {
        return Err(format!(
            "{} replies to {} lines",
            replies.len(),
            lines.len()
        ));
    }
    let mut placement = vec![None; n_vms];
    for (line, reply) in lines.iter().zip(replies) {
        if let (Line::Req(vm), Some(server)) = (line, reply_to(line, reply)?) {
            placement[vm.id().index()] = Some(ServerId(server));
        }
    }
    Ok(placement)
}

/// The counter part of a `STATS` reply: everything before the latency
/// fields, which are wall-clock and differ run to run.
pub fn stats_counters(reply: &str) -> &str {
    reply.split(" mean_us=").next().unwrap_or(reply)
}

/// Checks that two reply streams are byte-equal, comparing `STATS`
/// replies by their counters only.
pub fn same_replies(measured: &[String], reference: &[String]) -> Result<(), String> {
    if measured.len() != reference.len() {
        return Err(format!(
            "{} replies, reference has {}",
            measured.len(),
            reference.len()
        ));
    }
    for (i, (m, r)) in measured.iter().zip(reference).enumerate() {
        let same = if r.starts_with("STATS ") {
            stats_counters(m) == stats_counters(r)
        } else {
            m == r
        };
        if !same {
            return Err(format!("reply {i} is {m:?}, reference {r:?}"));
        }
    }
    Ok(())
}

/// The Eq. 7 cost of a placement, replayed through
/// `Assignment::from_placement` (which re-checks capacity at every
/// step) and audited against the reference cost model when complete.
pub fn placement_cost(
    problem: &AllocationProblem,
    placement: &[Option<ServerId>],
) -> Result<f64, String> {
    let assignment = Assignment::from_placement(problem, placement)
        .map_err(|e| format!("placement does not replay: {e}"))?;
    if assignment.is_complete() {
        let report = assignment
            .audit()
            .map_err(|e| format!("audit failed: {e}"))?;
        Ok(report.total_cost)
    } else {
        Ok(assignment.total_cost())
    }
}

/// Checks that the measured placement equals the reference one and
/// that their audited costs agree bit for bit. Returns the cost.
pub fn same_placement(
    problem: &AllocationProblem,
    measured: &[Option<ServerId>],
    reference: &[Option<ServerId>],
) -> Result<f64, String> {
    let got = placement_cost(problem, measured)?;
    let want = placement_cost(problem, reference)?;
    if got.to_bits() != want.to_bits() {
        return Err(format!(
            "served placement costs {got}, in-process replay {want}"
        ));
    }
    if let Some(j) = (0..measured.len()).find(|&j| measured[j] != reference[j]) {
        return Err(format!(
            "VM {j} served on {:?}, in-process replay chose {:?}",
            measured[j], reference[j]
        ));
    }
    Ok(got)
}

/// Checks that a server's journal checkpoint holds the reference's
/// committed Eq. 7 cost, bit for bit, and its eviction and repair
/// counts.
pub fn same_checkpoint(c: &Checkpoint, committed: f64, owed: &OnlineStats) -> Result<(), String> {
    if c.committed_cost_bits == committed.to_bits()
        && (c.evicted, c.repaired) == (owed.evicted, owed.repaired)
    {
        return Ok(());
    }
    Err(format!(
        "server checkpoint: cost {} evicted {} repaired {}; \
         reference: cost {committed} evicted {} repaired {}",
        f64::from_bits(c.committed_cost_bits),
        c.evicted,
        c.repaired,
        owed.evicted,
        owed.repaired
    ))
}

/// The whitespace-separated cells of the `esvm solve` table row for
/// `algo`.
fn solve_row<'a>(stdout: &'a str, algo: &str) -> Result<Vec<&'a str>, String> {
    stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&algo))
        .ok_or_else(|| format!("no {algo} row in esvm solve output"))
}

/// Checks that a printed `esvm solve` row equals the in-process audit
/// (total, run, idle, transition energy and CPU utilization, printed as
/// `esvm solve` prints them). Returns the printed total.
pub fn solve_totals(stdout: &str, algo: &str, want: &[String]) -> Result<f64, String> {
    let row = solve_row(stdout, algo)?;
    if row.len() != want.len() + 1 || row[1..].iter().zip(want).any(|(a, b)| a != b) {
        return Err(format!(
            "esvm solve printed {algo} row {row:?}, in-process audit gives {want:?}"
        ));
    }
    row[1]
        .parse()
        .map_err(|_| format!("unreadable {algo} total {:?}", row[1]))
}

/// Every y value of the figures whose axis is the energy reduction
/// ratio, read from `esvm all` output.
pub fn reduction_points(stdout: &str) -> Vec<f64> {
    table_values(stdout, |title, subtitle| {
        title.starts_with("Fig.") && subtitle.contains("energy reduction ratio")
    })
    .into_iter()
    .flat_map(|row| row.into_iter().skip(1))
    .collect()
}

/// The `miec energy/work` column of the E3 table of `esvm all`: Eq. 7
/// energy per unit of served CPU work (W per compute unit).
pub fn e3_miec_energy_per_work(stdout: &str) -> Vec<f64> {
    table_values(stdout, |title, _| title.starts_with("E3 "))
        .into_iter()
        .filter_map(|row| row.get(2).copied())
        .collect()
}

/// The numeric cells of every table whose title (and following line)
/// `pick` selects. A table's rows follow its dashed rule and end at a
/// blank line; non-numeric cells are skipped.
fn table_values(stdout: &str, pick: impl Fn(&str, &str) -> bool) -> Vec<Vec<f64>> {
    let lines: Vec<&str> = stdout.lines().collect();
    let mut rows = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let subtitle = lines.get(i + 1).copied().unwrap_or("");
        if !pick(lines[i], subtitle) {
            i += 1;
            continue;
        }
        let Some(rule) = (i..lines.len()).find(|&k| lines[k].starts_with("---")) else {
            break;
        };
        i = rule + 1;
        while i < lines.len() && !lines[i].trim().is_empty() {
            rows.push(
                lines[i]
                    .split_whitespace()
                    .filter_map(|cell| cell.parse().ok())
                    .collect(),
            );
            i += 1;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{serve_input, ServeShape};
    use esvm_core::OnlineEngine;

    fn input() -> crate::inputs::ServeInput {
        serve_input(
            &ServeShape {
                requests: 400,
                interarrival: 0.05,
                fault_rate: 0.0,
                stats_every: 0,
            },
            3,
        )
        .unwrap()
    }

    /// Replies an honest server gives, from an in-process engine.
    fn honest(input: &crate::inputs::ServeInput) -> (Vec<String>, Vec<Option<ServerId>>) {
        let mut engine = OnlineEngine::new(input.problem.servers());
        let replies = input
            .lines
            .iter()
            .map(|line| match line {
                Line::Req(vm) => match engine.arrive(*vm).unwrap().server() {
                    Some(s) => format!("PLACED {} {}", vm.id().0, s.0),
                    None => format!("REJECTED {}", vm.id().0),
                },
                _ => "STATS requests=400 placed=400".to_owned(),
            })
            .collect();
        (replies, engine.placement(input.problem.vm_count()))
    }

    #[test]
    fn honest_replies_pass() {
        let input = input();
        let (replies, reference) = honest(&input);
        let placement = super::replies(&input.lines, &replies, input.problem.vm_count()).unwrap();
        same_placement(&input.problem, &placement, &reference).unwrap();
        same_replies(&replies, &replies).unwrap();
    }

    #[test]
    fn corrupted_reply_streams_are_rejected() {
        let input = input();
        let n = input.problem.vm_count();
        let (replies, _) = honest(&input);
        let mut dropped = replies.clone();
        dropped.remove(10);
        assert!(super::replies(&input.lines, &dropped, n).is_err());
        let mut swapped = replies.clone();
        swapped.swap(3, 4);
        assert!(super::replies(&input.lines, &swapped, n).is_err());
        let mut wrong_id = replies.clone();
        wrong_id[5] = "PLACED 6 0".to_owned();
        assert!(super::replies(&input.lines, &wrong_id, n).is_err());
        let mut error = replies.clone();
        error[7] = "ERR overloaded admission queue full".to_owned();
        assert!(super::replies(&input.lines, &error, n).is_err());
        let mut extra = replies.clone();
        extra[8].push_str(" 9");
        assert!(super::replies(&input.lines, &extra, n).is_err());
        let mut stats = replies.clone();
        let last = stats.len() - 1;
        stats[last] = replies[last].replace("placed=400", "placed=399");
        assert!(same_replies(&stats, &replies).is_err());
    }

    #[test]
    fn corrupted_costs_are_rejected() {
        let input = input();
        let (replies, reference) = honest(&input);
        let placement = super::replies(&input.lines, &replies, input.problem.vm_count()).unwrap();
        // Move VM 0 to another server of a different spec class (the
        // fleet cycles through five server types): the cost changes.
        let mut moved = placement.clone();
        let from = moved[0].unwrap().0;
        moved[0] = Some(ServerId((from + 1) % input.problem.server_count() as u32));
        assert!(same_placement(&input.problem, &moved, &reference).is_err());
        // Dropping a placement is a different cost too.
        let mut lost = placement;
        lost[1] = None;
        assert!(same_placement(&input.problem, &lost, &reference).is_err());
    }

    #[test]
    fn corrupted_checkpoints_are_rejected() {
        let input = serve_input(
            &ServeShape {
                requests: 2_000,
                interarrival: 0.05,
                fault_rate: 0.05,
                stats_every: 0,
            },
            3,
        )
        .unwrap();
        let (_, engine) =
            crate::serve::engine_replies(&input, crate::serve::default_repair).unwrap();
        let owed = engine.stats();
        let committed = engine.committed_cost();
        let honest = Checkpoint {
            clock: engine.clock(),
            live: engine.live_count() as u64,
            placed: owed.placed,
            rejected: owed.rejected,
            departed: owed.departed,
            evicted: owed.evicted,
            repaired: owed.repaired,
            committed_cost_bits: committed.to_bits(),
            retired_cost_bits: engine.retired_cost().to_bits(),
        };
        same_checkpoint(&honest, committed, &owed).unwrap();
        // One ulp off is a different cost.
        let cost = Checkpoint {
            committed_cost_bits: committed.to_bits() + 1,
            ..honest
        };
        assert!(same_checkpoint(&cost, committed, &owed).is_err());
        let lost_repair = Checkpoint {
            repaired: owed.repaired - 1,
            ..honest
        };
        assert!(same_checkpoint(&lost_repair, committed, &owed).is_err());
    }

    #[test]
    fn solve_rows_must_match_the_audit() {
        let stdout = "trace t: 3 VMs\n\nalgorithm  total cost  run\nmiec  1200  700  300  200  41.5\nffps  1500  800  400  300  30.0\n";
        let want = |v: [&str; 5]| v.map(str::to_owned).to_vec();
        assert_eq!(
            solve_totals(stdout, "miec", &want(["1200", "700", "300", "200", "41.5"])),
            Ok(1200.0)
        );
        assert!(
            solve_totals(stdout, "miec", &want(["1201", "700", "300", "200", "41.5"])).is_err()
        );
        assert!(
            solve_totals(stdout, "ffps", &want(["1500", "800", "400", "300", "30.1"])).is_err()
        );
        assert!(solve_totals(stdout, "ls", &want(["1", "1", "1", "1", "1"])).is_err());
    }

    #[test]
    fn figure_tables_are_read() {
        let stdout = "Fig. 2: energy\n(y: energy reduction ratio (%))\n\nx  a  b\n-----\n0.5  10.0  20.0\n1.0  30.0\n\nFig. 3: util\n(y: resource utilization (%))\n\nx a\n---\n0.5 99.0\n\nE3 — overload\n\nservers/VMs  a  b  miec energy/work  ffps energy/work\n-----\n1/8  100.0  100.0  7.34  9.69\n1/16  100.0  100.0  8.34  9.59\n";
        assert_eq!(reduction_points(stdout), vec![10.0, 20.0, 30.0]);
        assert_eq!(e3_miec_energy_per_work(stdout), vec![7.34, 8.34]);
    }
}
