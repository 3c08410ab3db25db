//! Determinism pins for the fuzz subsystem (E19): the outcome table,
//! the unit records, the reproducers and the journal *bytes* are pure
//! functions of `(config, seed)` — invariant under thread count,
//! sharding, and crash/resume. Plus the end-to-end reproducer
//! contract: a journaled `(seed, tape)` pair replays to the same
//! outcome with the same request digest, with nothing else retained.

use std::process::Command;

use wsinterop::core::faults::{fuzz_site, FaultKind, FaultPlan};
use wsinterop::core::fuzz::{
    self, generate_case, replay_outcome, FuzzConfig, FuzzOutcome, FuzzTrigger,
};
use wsinterop::core::ShardSpec;
use wsinterop::frameworks::server::ServerId;
use wsinterop_core::doccache::content_hash;

/// A fault plan arming an injected crash on one property-capable
/// service and a virtual hang on another (both deployed at stride
/// 400), on every server — the same shape `wsitool fuzz --crash-fqcn
/// --hang-fqcn` builds.
fn armed_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::silent(seed);
    for server in ServerId::ALL {
        plan = plan
            .force_at(
                FaultKind::ClientGenPanic,
                fuzz_site(server, "java.util.PacketException"),
            )
            .force_at(
                FaultKind::SlowStep,
                fuzz_site(server, "java.awt.DigestSummary3046"),
            );
    }
    plan
}

fn armed_config(cases: usize, threads: usize) -> FuzzConfig {
    let mut config = FuzzConfig::new(cases, 7);
    config.stride = 400;
    config.threads = threads;
    config.plan = armed_plan(7);
    config
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wsitool-fuzz-det-{tag}-{}", std::process::id()))
}

#[test]
fn journal_bytes_are_thread_count_invariant() {
    let mut single = armed_config(3, 1);
    let p1 = temp_path("t1.journal");
    single.journal = Some(p1.clone());
    let mut pooled = armed_config(3, 8);
    let p8 = temp_path("t8.journal");
    pooled.journal = Some(p8.clone());

    let a = fuzz::run(&single, None).expect("single-threaded run");
    let b = fuzz::run(&pooled, None).expect("8-thread run");

    assert_eq!(a.table, b.table);
    assert_eq!(a.units, b.units);
    assert_eq!(a.repros, b.repros);
    let bytes1 = std::fs::read(&p1).unwrap();
    let bytes8 = std::fs::read(&p8).unwrap();
    assert_eq!(bytes1, bytes8, "journal bytes differ across thread counts");
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p8);
}

#[test]
fn sharded_merge_is_bit_identical_to_a_single_process_run() {
    let mut reference = armed_config(3, 4);
    let ref_journal = temp_path("ref.journal");
    reference.journal = Some(ref_journal.clone());
    let single = fuzz::run(&reference, None).expect("reference run");

    let dir = temp_path("shards");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for index in 0..2 {
        let spec = ShardSpec::new(index, 2);
        let mut worker = armed_config(3, 4);
        worker.shard = Some(spec);
        worker.journal = Some(spec.journal_file(&dir));
        fuzz::run(&worker, None).expect("shard run");
    }
    let (merged, merged_path) =
        fuzz::merge_fuzz_shard_dir(&dir, 2, &armed_config(3, 4)).expect("merge");

    assert_eq!(merged.table, single.table);
    assert_eq!(merged.units, single.units);
    assert_eq!(merged.repros, single.repros);
    assert_eq!(
        std::fs::read(&merged_path).unwrap(),
        std::fs::read(&ref_journal).unwrap(),
        "merged journal differs from the single-process journal"
    );
    let _ = std::fs::remove_file(&ref_journal);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reproducers_replay_from_seed_and_tape_alone_and_are_one_minimal() {
    let config = armed_config(4, 4);
    let outcome = fuzz::run(&config, None).expect("armed run");
    let crashes = outcome
        .repros
        .iter()
        .filter(|r| r.outcome == FuzzOutcome::Crash.code())
        .count();
    assert!(crashes > 0, "armed crash never fired");
    assert!(outcome.repros.len() > crashes, "armed hang never fired");

    let units = fuzz::fuzz_units(config.stride, config.extended);
    for repro in &outcome.repros {
        let unit = units
            .iter()
            .find(|u| u.server == repro.server && u.fqcn == repro.fqcn)
            .expect("repro names a deployed unit");
        let defs = wsinterop_wsdl::de::from_xml_str(&unit.wsdl_xml).expect("unit WSDL parses");
        let op = defs
            .port_types
            .iter()
            .flat_map(|p| p.operations.iter())
            .next()
            .expect("unit has an operation");
        let trigger = FuzzTrigger::from_plan(&config.plan, repro.server, &repro.fqcn);
        let target = FuzzOutcome::from_code(repro.outcome).unwrap();

        // The contract: (seed, tape) is the whole reproducer.
        let replayed = quiet(|| {
            replay_outcome(&defs, &op.name, repro.seed, &repro.tape, &trigger, &config.limits)
        });
        assert_eq!(replayed, target, "{:?}/{} repro does not replay", repro.server, repro.fqcn);

        // The journaled digest is the hash of the regenerated request.
        let regenerated =
            generate_case(&defs, &op.name, repro.seed, Some(&repro.tape), &config.limits)
                .expect("shrunk tape regenerates");
        assert_eq!(content_hash(regenerated.request_xml.as_bytes()), repro.digest);

        // Shrunk crash/hang tapes are 1-minimal: dropping any single
        // choice loses the reproduction.
        if target >= FuzzOutcome::HangDeadline {
            for skip in 0..repro.tape.len() {
                let mut shorter = repro.tape.clone();
                shorter.remove(skip);
                let still = quiet(|| {
                    replay_outcome(&defs, &op.name, repro.seed, &shorter, &trigger, &config.limits)
                });
                assert_ne!(
                    still, target,
                    "tape for {:?}/{} is not minimal: dropping choice {skip} still reproduces",
                    repro.server, repro.fqcn
                );
            }
        }
    }
}

/// Silences the default panic hook around injected-crash replays.
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

// --- CLI: halt / resume convergence ---------------------------------

fn wsitool(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wsitool"))
        .args(args)
        .output()
        .expect("wsitool runs")
}

/// Drops the `journal: <path> …` line (the paths legitimately differ)
/// before comparing run stdout.
fn science_lines(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.starts_with("journal:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn halted_fuzz_run_resumes_to_identical_journal_and_stdout() {
    let reference = temp_path("cli-ref.journal");
    let halted = temp_path("cli-halt.journal");
    let _ = std::fs::remove_file(&reference);
    let _ = std::fs::remove_file(&halted);
    let base = [
        "fuzz", "--cases", "3", "--stride", "1200", "--seed", "11", "--quiet", "--journal",
    ];

    let mut args: Vec<&str> = base.to_vec();
    let ref_str = reference.to_str().unwrap();
    args.push(ref_str);
    let full = wsitool(&args);
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));

    let halt_str = halted.to_str().unwrap();
    let killed = wsitool(&{
        let mut v: Vec<&str> = base.to_vec();
        v.push(halt_str);
        v.extend(["--halt-after-units", "2"]);
        v
    });
    assert_eq!(
        killed.status.code(),
        Some(9),
        "halt must exit with the journal-halt code: {}",
        String::from_utf8_lossy(&killed.stderr)
    );

    let resumed = wsitool(&{
        let mut v: Vec<&str> = base.to_vec();
        v.push(halt_str);
        v.push("--resume");
        v
    });
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let resumed_out = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        resumed_out.contains("replayed on resume"),
        "resume did not replay committed units:\n{resumed_out}"
    );

    assert_eq!(
        science_lines(&full.stdout),
        science_lines(&resumed.stdout),
        "resumed stdout diverged from the uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&halted).unwrap(),
        "resumed journal bytes diverged from the uninterrupted run"
    );

    // The journaled record is inspectable.
    let inspect = wsitool(&["journal", "inspect", ref_str, "--json"]);
    assert!(inspect.status.success());
    let json = String::from_utf8_lossy(&inspect.stdout);
    assert!(json.contains("\"fuzz_units\""), "{json}");

    let _ = std::fs::remove_file(&reference);
    let _ = std::fs::remove_file(&halted);
}

// --- CLI: supervised recovery of a killed worker --------------------

#[cfg(unix)]
#[test]
fn killed_fuzz_worker_is_respawned_and_the_merge_is_bit_identical() {
    // The CI smoke's armed injections, on a stride and case count at
    // which each worker runs for a second or more — far longer than
    // the few milliseconds between its spawn and the kill below.
    let args = [
        "fuzz", "--cases", "16", "--stride", "5", "--seed", "7",
        "--crash-fqcn", "java.util.PacketException",
        "--hang-fqcn", "java.awt.DigestSummary3046", "--quiet",
    ];
    let reference = temp_path("kill-ref.journal");
    let dir = temp_path("kill-shards");
    let _ = std::fs::remove_file(&reference);
    let _ = std::fs::remove_dir_all(&dir);
    let ref_str = reference.to_str().unwrap();
    let dir_str = dir.to_str().unwrap();

    let single = wsitool(&[&args[..], &["--journal", ref_str]].concat());
    assert!(
        single.status.success(),
        "{}",
        String::from_utf8_lossy(&single.stderr)
    );

    let mut supervisor = Command::new(env!("CARGO_BIN_EXE_wsitool"))
        .args(args)
        .args(["--shards", "2", "--shard-dir", dir_str])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("supervisor starts");
    let pid_file = ShardSpec::new(0, 2).pid_file(&dir);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let pid = loop {
        let published = std::fs::read_to_string(&pid_file).ok();
        if let Some(pid) = published.and_then(|p| p.trim().parse::<u32>().ok()) {
            break pid.to_string();
        }
        if let Some(status) = supervisor.try_wait().expect("supervisor pollable") {
            panic!("supervisor exited ({status}) before worker 0 published its pid");
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker 0 never published its pid"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    let signal = |sig: &str| {
        Command::new("kill")
            .args([sig, pid.as_str()])
            .status()
            .expect("kill runs")
            .success()
    };
    assert!(
        signal("-STOP"),
        "worker 0 (pid {pid}) finished before it could be stopped; the workload is too short"
    );
    assert!(signal("-KILL"), "cannot SIGKILL worker 0 (pid {pid})");

    let out = supervisor.wait_with_output().expect("supervisor finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(
        out.status.code(),
        Some(0),
        "worker 0 finished before the SIGKILL landed, so nothing was recovered; \
         the workload is too short:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("1 respawn(s)"), "{stderr}");
    assert_eq!(
        science_lines(&single.stdout),
        science_lines(&out.stdout),
        "recovered sharded stdout diverged from the single-process run"
    );
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(dir.join("merged.journal")).unwrap(),
        "merged journal bytes diverged from the single-process journal"
    );
    let _ = std::fs::remove_file(&reference);
    let _ = std::fs::remove_dir_all(&dir);
}
