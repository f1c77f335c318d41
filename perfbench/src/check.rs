//! Independent validation of every schedule the benchmark gets back,
//! recomputed from the instance data it sent (not from the library's own
//! `Schedule::validate`).

use bisched_core::SolveReport;
use bisched_model::InstanceData;
use bisched_service::Response;

/// What a valid answer contributes to the end-to-end quality metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Checked {
    /// `C_max / lower bound`.
    pub ratio_lb: f64,
    /// Whether the guarantee is `optimal`.
    pub optimal: bool,
}

/// `a/b < c/d` for non-negative fractions with positive denominators.
fn less(a: u128, b: u128, c: u128, d: u128) -> bool {
    a * d < c * b
}

/// Checks one schedule against the instance it answers: the assignment
/// length, every machine index, no incompatible pair on one machine, the
/// reported makespan equal to the recomputed `C_max`, and `C_max` at least
/// the reported lower bound.
pub fn check_schedule(
    data: &InstanceData,
    assignment: &[u32],
    makespan: (u64, u64),
    lower_bound: (u64, u64),
) -> Result<f64, String> {
    if assignment.len() != data.jobs {
        return Err(format!(
            "assignment has {} entries for {} jobs",
            assignment.len(),
            data.jobs
        ));
    }
    let machines = match data.env.as_str() {
        "P" => data.machines.unwrap_or(0),
        "Q" => data.speeds.as_ref().map_or(0, Vec::len),
        _ => data.times.as_ref().map_or(0, Vec::len),
    };
    if let Some((j, &i)) = assignment
        .iter()
        .enumerate()
        .find(|(_, &i)| i as usize >= machines)
    {
        return Err(format!("job {j} on machine {i} of {machines}"));
    }
    if let Some(&(u, v)) = data
        .edges
        .iter()
        .find(|&&(u, v)| assignment[u as usize] == assignment[v as usize])
    {
        return Err(format!(
            "incompatible jobs {u} and {v} share machine {}",
            assignment[u as usize]
        ));
    }
    let mut loads = vec![0u128; machines];
    for (j, &i) in assignment.iter().enumerate() {
        loads[i as usize] += match (&data.times, &data.processing) {
            (Some(times), _) => times[i as usize][j] as u128,
            (None, Some(p)) => p[j] as u128,
            (None, None) => return Err("instance data has no job sizes".into()),
        };
    }
    // C_max as a fraction num/den: load / speed on Q, the load elsewhere.
    let speed = |i: usize| data.speeds.as_ref().map_or(1, |s| s[i] as u128);
    let (mut cnum, mut cden) = (0u128, 1u128);
    for (i, &load) in loads.iter().enumerate() {
        if less(cnum, cden, load, speed(i)) {
            (cnum, cden) = (load, speed(i));
        }
    }
    let (mnum, mden) = (makespan.0 as u128, makespan.1 as u128);
    let (lnum, lden) = (lower_bound.0 as u128, lower_bound.1 as u128);
    if mden == 0 || lden == 0 || lnum == 0 {
        return Err(format!(
            "degenerate fraction: makespan {mnum}/{mden}, lower bound {lnum}/{lden}"
        ));
    }
    if cnum * mden != mnum * cden {
        return Err(format!(
            "reported makespan {mnum}/{mden} but the schedule's C_max is {cnum}/{cden}"
        ));
    }
    if less(cnum, cden, lnum, lden) {
        return Err(format!(
            "C_max {cnum}/{cden} below the lower bound {lnum}/{lden}"
        ));
    }
    Ok((mnum as f64 / mden as f64) / (lnum as f64 / lden as f64))
}

/// Checks a daemon solve response against the instance that was sent.
pub fn check_response(data: &InstanceData, resp: &Response) -> Result<Checked, String> {
    if resp.status != "ok" {
        return Err(format!(
            "status {}: {}",
            resp.status,
            resp.error.as_deref().unwrap_or("")
        ));
    }
    let missing = |field: &str| format!("ok response without `{field}`");
    let assignment = resp
        .assignment
        .as_deref()
        .ok_or_else(|| missing("assignment"))?;
    let makespan = (
        resp.makespan_num.ok_or_else(|| missing("makespan_num"))?,
        resp.makespan_den.ok_or_else(|| missing("makespan_den"))?,
    );
    let lower_bound = (
        resp.lower_bound_num
            .ok_or_else(|| missing("lower_bound_num"))?,
        resp.lower_bound_den
            .ok_or_else(|| missing("lower_bound_den"))?,
    );
    let ratio_lb = check_schedule(data, assignment, makespan, lower_bound)?;
    Ok(Checked {
        ratio_lb,
        optimal: resp.guarantee.as_deref() == Some("optimal"),
    })
}

/// Checks an in-process report against the instance it solved.
pub fn check_report(data: &InstanceData, report: &SolveReport) -> Result<Checked, String> {
    let ratio_lb = check_schedule(
        data,
        report.schedule.assignment(),
        (report.makespan.num(), report.makespan.den()),
        (report.lower_bound.num(), report.lower_bound.den()),
    )?;
    Ok(Checked {
        ratio_lb,
        optimal: report.guarantee == bisched_core::Guarantee::Optimal,
    })
}
