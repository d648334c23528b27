//! `RefMachine::run_to` is the lockstep oracle's path: the same
//! interpreter body as `RefMachine::step`, recording nothing. Run in
//! chunks of any size, it must reach exactly the state, instruction
//! count, console output and memory that `RefMachine::run` reaches.

use dtsvliw_asm::assemble;
use dtsvliw_primary::{Halt, RefMachine, RunOutcome};
use dtsvliw_workloads::{all, Scale};

/// Run `m` to its halt in chunks of `chunk` instructions, checking that
/// every chunk without a halt ends exactly on its target.
fn run_in_chunks(m: &mut RefMachine, chunk: u64, out: &mut Vec<u8>) -> Halt {
    loop {
        let target = m.retired + chunk;
        match m.run_to(target, out).unwrap() {
            Some(halt) => {
                assert!(m.retired <= target, "ran past the chunk");
                return halt;
            }
            None => assert_eq!(m.retired, target),
        }
    }
}

#[test]
fn chunked_run_to_matches_run_on_every_table2_program() {
    let suite = all(Scale::Test);
    assert_eq!(suite.len(), 8);
    for w in &suite {
        let img = w.image();
        let mut reference = RefMachine::new(&img);
        let RunOutcome::Halted { code, retired } = reference.run(200_000_000).unwrap() else {
            panic!("{} did not halt", w.name);
        };
        for chunk in [1, 7, 64] {
            let mut m = RefMachine::new(&img);
            let mut out = Vec::new();
            let halt = run_in_chunks(&mut m, chunk, &mut out);
            let ctx = format!("{} in chunks of {chunk}", w.name);
            assert_eq!(halt, Halt::Exit(code), "{ctx}");
            assert_eq!(m.retired, retired, "{ctx}: retired counts the ta");
            assert_eq!(m.state, reference.state, "{ctx}");
            assert_eq!(out, reference.output, "{ctx}");
            assert!(m.output.is_empty(), "{ctx}: output goes to `out` only");
            assert_eq!(m.mem.first_difference(&reference.mem), None, "{ctx}");
        }
    }
}

#[test]
fn halt_inside_a_chunk_stops_there_with_the_output_so_far() {
    let img =
        assemble("_start: mov 'A', %o0\n ta 2\n mov 4007, %o0\n ta 3\n mov 9, %o0\n ta 0\n ta 2\n")
            .unwrap();
    let mut m = RefMachine::new(&img);
    let mut out = b">".to_vec();
    assert_eq!(m.run_to(3, &mut out).unwrap(), None);
    assert_eq!((m.retired, out.as_slice()), (3, &b">A"[..]));
    assert_eq!(m.run_to(100, &mut out).unwrap(), Some(Halt::Exit(9)));
    assert_eq!(m.retired, 6, "the ta counts");
    assert_eq!(out, b">A4007");
    // A target already reached steps nothing.
    assert_eq!(m.run_to(6, &mut out).unwrap(), None);
    assert_eq!(m.retired, 6);

    let mut reference = RefMachine::new(&img);
    reference.run(100).unwrap();
    assert_eq!(m.state, reference.state);
    assert_eq!(reference.output, b"A4007");
}
