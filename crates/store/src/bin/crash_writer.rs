//! Crash-harness writer: appends a deterministic table workload to a
//! `LakeStore`, printing `acked <seq>` after every durable append, until
//! it finishes or is `SIGKILL`ed by the harness (`tests/crash_kill.rs`).
//!
//! The table for sequence `i` is a pure function of `i` and must stay in
//! lockstep with `crash_kill::workload_table` — the harness rebuilds the
//! uninterrupted run from it and asserts the recovered store matches.
//!
//! Usage: `crash-writer <dir> <count>`

use std::io::Write;

use lake_store::{LakeStore, StorePolicy};
use lake_table::{Table, TableBuilder};

/// The deterministic workload table for sequence `seq` (kept in lockstep
/// with the copy in `tests/crash_kill.rs`).
fn workload_table(seq: u64) -> Table {
    let mut builder =
        TableBuilder::new(format!("t{seq}"), ["Entity".to_string(), format!("attr{}", seq % 7)]);
    for row in 0..3 {
        builder = builder.row([format!("entity-{}", (seq + row) % 11), format!("v{seq}-{row}")]);
    }
    builder.build().expect("workload table builds")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, dir, count] = args.as_slice() else {
        eprintln!("usage: crash-writer <dir> <count>");
        std::process::exit(2);
    };
    let Ok(count) = count.parse::<u64>() else {
        eprintln!("crash-writer: count must be a non-negative integer");
        std::process::exit(2);
    };

    let mut store = LakeStore::open(std::path::Path::new(dir), StorePolicy::default())
        .unwrap_or_else(|err| panic!("open store in {dir}: {err}"));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    for seq in store.next_seq()..count {
        let table = workload_table(seq);
        let acked = store.append("crash", &table, true).expect("append");
        assert_eq!(acked, seq, "sequence numbers must be dense");
        // The ack line is the harness's ground truth: everything printed
        // before the kill MUST survive recovery.
        writeln!(out, "acked {seq}").expect("stdout");
        out.flush().expect("stdout flush");
    }
    writeln!(out, "done").expect("stdout");
}
