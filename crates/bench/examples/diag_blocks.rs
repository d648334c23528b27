//! Developer diagnostic: schedule a slice of a workload's trace and
//! print the resulting blocks, long instruction by long instruction —
//! the fastest way to see what the FCFS scheduler does to real code.
//!
//! ```sh
//! cargo run --release -p dtsvliw-bench --example diag_blocks
//! ```

use dtsvliw_primary::RefMachine;
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_sched::InsertOutcome;
use dtsvliw_workloads::{by_name, Scale};

fn main() {
    let w = by_name("ijpeg", Scale::Test).unwrap();
    let img = w.image();
    let mut m = RefMachine::new(&img);
    // skip ahead into the transform (past the generator)
    for _ in 0..200_000 {
        m.step().unwrap();
    }
    let mut s = Scheduler::new(SchedConfig::homogeneous(8, 16));
    let mut blocks = vec![];
    while blocks.len() < 4 {
        let st = m.step().unwrap();
        if st.dyn_instr.instr.is_non_schedulable() {
            continue;
        }
        s.tick();
        if let InsertOutcome::Inserted(Some(b)) = s.insert(&st.dyn_instr, 1) {
            blocks.push(b);
        }
    }
    for b in &blocks[2..4] {
        println!(
            "=== block @{:#x} lis={} instrs={} filled={} ===",
            b.tag_addr,
            b.lis.len(),
            b.trace_instrs(),
            b.filled_slots()
        );
        for (i, li) in b.lis.iter().enumerate() {
            let row: Vec<String> = li
                .slots()
                .map(|s| match s {
                    None => "-".into(),
                    Some(dtsvliw_sched::SlotOp::Instr(x)) => format!("{}", x.d.instr),
                    Some(dtsvliw_sched::SlotOp::Copy(c)) => format!("COPY{}", c.pairs.len()),
                })
                .collect();
            println!("{i:2}: {}", row.join(" | "));
        }
    }
}
