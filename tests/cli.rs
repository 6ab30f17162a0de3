//! End-to-end tests of the `dscw` command-line tool.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dscw"))
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dscw-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const PROC: &str = r#"
process Mini {
  var po, au, oi;
  service Credit { ports 1 async }
  sequence {
    receive recOrder from Client writes po;
    invoke invCheck on Credit port 1 reads po;
    receive recAuth from Credit writes au;
    switch gate reads au {
      case T { assign fulfil writes oi; }
      case F { assign refuse writes oi; }
    }
    reply done to Client reads oi;
  }
}
"#;

const COOP: &str = r#"
constraints MiniCoop {
  activities fulfil, done;
  cooperation: F(fulfil) -> S(done);
}
"#;

const WSCL: &str = r#"<Conversation name="Credit">
  <ConversationInteractions>
    <Interaction interactionType="Receive" id="check">
      <InboundXMLDocument id="Check"/>
    </Interaction>
    <Interaction interactionType="Send" id="auth">
      <OutboundXMLDocument id="Auth"/>
    </Interaction>
  </ConversationInteractions>
  <ConversationTransitions>
    <Transition><SourceInteraction href="check"/><DestinationInteraction href="auth"/></Transition>
  </ConversationTransitions>
</Conversation>"#;

#[test]
fn validate_and_optimize_and_run() {
    let proc_path = write_tmp("mini.proc", PROC);
    let coop_path = write_tmp("mini.dscl", COOP);
    let wscl_path = write_tmp("credit.xml", WSCL);
    let wscl_arg = format!("{}:check=invCheck,auth=recAuth", wscl_path.display());

    let out = bin()
        .args(["validate", proc_path.to_str().unwrap()])
        .args(["--coop", coop_path.to_str().unwrap()])
        .args(["--wscl", &wscl_arg])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("validation:   OK"), "{text}");
    assert!(text.contains("0 violations"), "{text}");

    let out = bin()
        .args(["optimize", proc_path.to_str().unwrap()])
        .args(["--coop", coop_path.to_str().unwrap()])
        .args(["--wscl", &wscl_arg])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1."));
    assert!(text.contains("Table 2."));
    assert!(text.contains("removal justifications:"), "{text}");
    // The WSCL callback translated to invCheck → recAuth.
    assert!(text.contains("translated: F(invCheck) -> S(recAuth);"), "{text}");

    let out = bin()
        .args(["run", proc_path.to_str().unwrap()])
        .args(["--coop", coop_path.to_str().unwrap()])
        .args(["--wscl", &wscl_arg])
        .args(["--branch", "gate=F"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Skip     fulfil"), "{text}");
    assert!(text.contains("Start    refuse"), "{text}");
}

#[test]
fn bpel_and_dot_outputs() {
    let proc_path = write_tmp("mini2.proc", PROC);
    let out = bin()
        .args(["bpel", proc_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("<process name=\"Mini\""));
    // Emitted BPEL parses back.
    assert!(dscweaver::bpel::parse_bpel(text.trim_start_matches("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")).is_ok());

    for stage in ["sc", "asc", "minimal"] {
        let out = bin()
            .args(["dot", proc_path.to_str().unwrap(), "--stage", stage])
            .output()
            .unwrap();
        assert!(out.status.success(), "stage {stage}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
    }
}

/// `dscw run --trace` must emit Chrome trace-event JSON that the in-repo
/// parser accepts, with nested phase spans, worker lanes, and counter
/// samples — the Perfetto-loadable artifact promised by OBSERVABILITY.md.
#[test]
fn run_with_trace_emits_valid_chrome_trace() {
    let proc_path = write_tmp("mini3.proc", PROC);
    let trace_path = write_tmp("mini3.trace.json", "");
    let out = bin()
        .args(["run", proc_path.to_str().unwrap()])
        .args(["--branch", "gate=T"])
        .args(["--trace", trace_path.to_str().unwrap()])
        .args(["--profile", "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace written to"), "{stderr}");
    assert!(stderr.contains("phase"), "profile summary missing: {stderr}");
    assert!(stderr.contains("weave"), "{stderr}");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = dscweaver::obs::json::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let ph = |e: &dscweaver::obs::json::Json| {
        e.get("ph").and_then(|v| v.as_str()).unwrap_or("").to_string()
    };
    let name = |e: &dscweaver::obs::json::Json| {
        e.get("name").and_then(|v| v.as_str()).unwrap_or("").to_string()
    };

    // Balanced B/E pairs and at least three distinct nested phases.
    let begins: Vec<String> = events.iter().filter(|e| ph(e) == "B").map(&name).collect();
    let ends = events.iter().filter(|e| ph(e) == "E").count();
    assert_eq!(begins.len(), ends, "unbalanced spans");
    for phase in ["weave", "weaver.run", "minimize", "petri.validate", "scheduler.run"] {
        assert!(begins.iter().any(|n| n == phase), "missing span {phase}: {begins:?}");
    }

    // Thread-name metadata includes the main lane and at least one worker
    // lane (threads=2 over two branch assignments spawns real workers).
    let lanes: Vec<String> = events
        .iter()
        .filter(|e| ph(e) == "M")
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
        .collect();
    assert!(lanes.iter().any(|l| l == "main"), "{lanes:?}");
    assert!(lanes.iter().any(|l| l.starts_with("worker-")), "{lanes:?}");

    // Counter samples ride along as 'C' events.
    let counters: Vec<String> = events.iter().filter(|e| ph(e) == "C").map(&name).collect();
    assert!(
        counters.iter().any(|c| c == "petri.assignments_checked"),
        "{counters:?}"
    );
}

/// `dscw monitor` fans the executed vertical out into a fleet of live
/// instances, streams them through the online monitor with injected
/// violations, and pins the verdict stream to the post-hoc oracle (the
/// replay fails hard on divergence). The switch makes one branch dead, so
/// this also covers the skip-projection path: the monitor program is
/// compiled over executed activities only.
#[test]
fn monitor_streams_a_fleet_and_pins_the_oracle() {
    let proc_path = write_tmp("mini4.proc", PROC);
    let coop_path = write_tmp("mini4.dscl", COOP);
    let wscl_path = write_tmp("credit4.xml", WSCL);
    let wscl_arg = format!("{}:check=invCheck,auth=recAuth", wscl_path.display());
    let out = bin()
        .args(["monitor", proc_path.to_str().unwrap()])
        .args(["--coop", coop_path.to_str().unwrap()])
        .args(["--wscl", &wscl_arg])
        .args(["--branch", "gate=T"])
        .args(["--instances", "200", "--batch", "128", "--violate", "0.1", "--seed", "9"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("monitor: 200 instances"), "{text}");
    assert!(text.contains("peak live 200"), "{text}");
    assert!(text.contains("200 retired"), "{text}");
    // At a 10% per-kind rate some of the 200 instances must be dirty and
    // produce verdict lines.
    assert!(!text.contains(" 0 verdicts"), "{text}");
    assert!(text.contains("Ordering:") || text.contains("Conversation:"), "{text}");
}

#[test]
fn errors_are_reported() {
    // Missing file.
    let out = bin().args(["validate", "/nonexistent.proc"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Invalid process.
    let bad = write_tmp("bad.proc", "process P { bogus }");
    let out = bin().args(["optimize", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());

    // Unknown command.
    let good = write_tmp("ok.proc", "process P { var x; assign a writes x; }");
    let out = bin().args(["frobnicate", good.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());

    // No args → usage.
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn serve_rejects_unknown_flags_with_usage() {
    for flags in [["--batch", "4"], ["--pipeline-depth", "4"], ["--stats-interval", "1"]] {
        let out = bin().arg("serve").args(flags).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "dscw serve {flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "dscw serve {flags:?}: {stderr}");
    }
}
