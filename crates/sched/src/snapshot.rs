//! JSON snapshot serialisation for scheduled code and the in-flight
//! scheduling list.
//!
//! The durability layer (DESIGN.md §10) checkpoints the whole machine
//! mid-run, which includes blocks resident in the VLIW Cache and the
//! Scheduler Unit's half-built block. The `dtsvliw-isa` crate stays
//! JSON-free, so the serialisers for its types (resources, dynamic
//! instructions, the architectural state) live here, next to the first
//! consumer; the `vliw` and `core` crates reuse them.
//!
//! Decoders follow the workspace convention set by
//! `dtsvliw_trace::Histogram::from_json`: they return `Option`, with
//! `None` for any structural mismatch, and the caller turns that into a
//! typed corrupt-snapshot error.

use crate::block::{Block, CopyInstr, LongInstr, RenameCounts, ScheduledInstr, SlotOp};
use crate::scheduler::{ElemView, SchedConfig, SchedStats, Scheduler, MAX_WIDTH};
use dtsvliw_isa::encode::{decode, encode};
use dtsvliw_isa::{ArchState, DynInstr, Fcc, Icc, ResList, Resource};
use dtsvliw_json::Json;

fn u64_of(j: &Json, key: &str) -> Option<u64> {
    j.get(key)?.as_u64()
}

fn u32_of(j: &Json, key: &str) -> Option<u32> {
    u32::try_from(j.get(key)?.as_u64()?).ok()
}

fn u16_of(j: &Json, key: &str) -> Option<u16> {
    u16::try_from(j.get(key)?.as_u64()?).ok()
}

fn u8_of(j: &Json, key: &str) -> Option<u8> {
    u8::try_from(j.get(key)?.as_u64()?).ok()
}

fn bool_of(j: &Json, key: &str) -> Option<bool> {
    j.get(key)?.as_bool()
}

fn opt_u32_json(v: Option<u32>) -> Json {
    match v {
        Some(x) => Json::U64(x as u64),
        None => Json::Null,
    }
}

fn opt_u32_of(j: &Json, key: &str) -> Option<Option<u32>> {
    match j.get(key)? {
        Json::Null => Some(None),
        v => Some(Some(u32::try_from(v.as_u64()?).ok()?)),
    }
}

fn opt_u16_of(j: &Json, key: &str) -> Option<Option<u16>> {
    match j.get(key)? {
        Json::Null => Some(None),
        v => Some(Some(u16::try_from(v.as_u64()?).ok()?)),
    }
}

// -----------------------------------------------------------------
// isa types
// -----------------------------------------------------------------

/// Compact tagged-string form of a dependence resource
/// (`"i:37"`, `"m:8192:4"`, `"icc"`, ...).
pub fn resource_to_json(r: &Resource) -> Json {
    let s = match r {
        Resource::Int(n) => format!("i:{n}"),
        Resource::IntRen(n) => format!("ir:{n}"),
        Resource::Fp(n) => format!("f:{n}"),
        Resource::FpRen(n) => format!("fr:{n}"),
        Resource::Icc => "icc".to_string(),
        Resource::IccRen(n) => format!("iccr:{n}"),
        Resource::Fcc => "fcc".to_string(),
        Resource::FccRen(n) => format!("fccr:{n}"),
        Resource::Y => "y".to_string(),
        Resource::Cwp => "cwp".to_string(),
        Resource::Mem { addr, size } => format!("m:{addr}:{size}"),
        Resource::MemRen(n) => format!("mr:{n}"),
    };
    Json::Str(s)
}

/// Inverse of [`resource_to_json`].
pub fn resource_from_json(j: &Json) -> Option<Resource> {
    let s = j.as_str()?;
    Some(match s {
        "icc" => Resource::Icc,
        "fcc" => Resource::Fcc,
        "y" => Resource::Y,
        "cwp" => Resource::Cwp,
        _ => {
            let (kind, rest) = s.split_once(':')?;
            match kind {
                "i" => Resource::Int(rest.parse().ok()?),
                "ir" => Resource::IntRen(rest.parse().ok()?),
                "f" => Resource::Fp(rest.parse().ok()?),
                "fr" => Resource::FpRen(rest.parse().ok()?),
                "iccr" => Resource::IccRen(rest.parse().ok()?),
                "fccr" => Resource::FccRen(rest.parse().ok()?),
                "mr" => Resource::MemRen(rest.parse().ok()?),
                "m" => {
                    let (a, sz) = rest.split_once(':')?;
                    Resource::Mem {
                        addr: a.parse().ok()?,
                        size: sz.parse().ok()?,
                    }
                }
                _ => return None,
            }
        }
    })
}

/// A resource list as a JSON array of tagged strings.
pub fn reslist_to_json(l: &ResList) -> Json {
    Json::Arr(l.iter().map(resource_to_json).collect())
}

/// Inverse of [`reslist_to_json`].
pub fn reslist_from_json(j: &Json) -> Option<ResList> {
    let items = j.as_arr()?;
    if items.len() > 4 {
        return None;
    }
    let mut l = Vec::with_capacity(items.len());
    for item in items {
        l.push(resource_from_json(item)?);
    }
    Some(l.into_iter().collect())
}

/// A dynamic instruction; the static instruction travels as its 32-bit
/// SPARC encoding (`encode`/`decode` round-trip exactly).
pub fn dyninstr_to_json(d: &DynInstr) -> Json {
    Json::obj([
        ("seq", Json::U64(d.seq)),
        ("pc", Json::U64(d.pc as u64)),
        ("word", Json::U64(encode(&d.instr) as u64)),
        ("cwp_before", Json::U64(d.cwp_before as u64)),
        ("cwp_after", Json::U64(d.cwp_after as u64)),
        ("eff_addr", opt_u32_json(d.eff_addr)),
        (
            "taken",
            match d.taken {
                Some(b) => Json::Bool(b),
                None => Json::Null,
            },
        ),
        ("target", opt_u32_json(d.target)),
        ("delay_is_nop", Json::Bool(d.delay_is_nop)),
    ])
}

/// Inverse of [`dyninstr_to_json`].
pub fn dyninstr_from_json(j: &Json) -> Option<DynInstr> {
    Some(DynInstr {
        seq: u64_of(j, "seq")?,
        pc: u32_of(j, "pc")?,
        instr: decode(u32_of(j, "word")?),
        cwp_before: u8_of(j, "cwp_before")?,
        cwp_after: u8_of(j, "cwp_after")?,
        eff_addr: opt_u32_of(j, "eff_addr")?,
        taken: match j.get("taken")? {
            Json::Null => None,
            v => Some(v.as_bool()?),
        },
        target: opt_u32_of(j, "target")?,
        delay_is_nop: bool_of(j, "delay_is_nop")?,
    })
}

/// The full architectural state.
pub fn arch_state_to_json(s: &ArchState) -> Json {
    Json::obj([
        (
            "int",
            Json::Arr(s.int.iter().map(|&v| Json::U64(v as u64)).collect()),
        ),
        (
            "fp",
            Json::Arr(s.fp.iter().map(|&v| Json::U64(v as u64)).collect()),
        ),
        ("icc", Json::U64(s.icc.to_bits() as u64)),
        ("fcc", Json::U64(s.fcc as u64)),
        ("y", Json::U64(s.y as u64)),
        ("cwp", Json::U64(s.cwp as u64)),
        ("resident", Json::U64(s.resident as u64)),
        ("pc", Json::U64(s.pc as u64)),
        ("npc", Json::U64(s.npc as u64)),
    ])
}

/// Inverse of [`arch_state_to_json`].
pub fn arch_state_from_json(j: &Json) -> Option<ArchState> {
    let mut s = ArchState::new(u32_of(j, "pc")?);
    let int = j.get("int")?.as_arr()?;
    if int.len() != s.int.len() {
        return None;
    }
    for (slot, v) in s.int.iter_mut().zip(int) {
        *slot = u32::try_from(v.as_u64()?).ok()?;
    }
    let fp = j.get("fp")?.as_arr()?;
    if fp.len() != s.fp.len() {
        return None;
    }
    for (slot, v) in s.fp.iter_mut().zip(fp) {
        *slot = u32::try_from(v.as_u64()?).ok()?;
    }
    s.icc = Icc::from_bits(u8_of(j, "icc")?);
    s.fcc = Fcc::from_bits(u8_of(j, "fcc")?);
    s.y = u32_of(j, "y")?;
    s.cwp = u8_of(j, "cwp")?;
    s.resident = u8_of(j, "resident")?;
    s.npc = u32_of(j, "npc")?;
    Some(s)
}

// -----------------------------------------------------------------
// Scheduled code
// -----------------------------------------------------------------

fn rename_pairs_to_json(pairs: &[(Resource, Resource)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(a, b)| Json::arr([resource_to_json(a), resource_to_json(b)]))
            .collect(),
    )
}

fn rename_pairs_from_json(j: &Json) -> Option<Vec<(Resource, Resource)>> {
    let mut out = Vec::new();
    for p in j.as_arr()? {
        let p = p.as_arr()?;
        if p.len() != 2 {
            return None;
        }
        out.push((resource_from_json(&p[0])?, resource_from_json(&p[1])?));
    }
    Some(out)
}

fn scheduled_to_json(s: &ScheduledInstr) -> Json {
    Json::obj([
        ("d", dyninstr_to_json(&s.d)),
        ("reads", reslist_to_json(&s.reads)),
        ("writes", reslist_to_json(&s.writes)),
        ("tag", Json::U64(s.tag as u64)),
        (
            "ls_order",
            match s.ls_order {
                Some(o) => Json::U64(o as u64),
                None => Json::Null,
            },
        ),
        ("cross", Json::Bool(s.cross)),
        ("src_renames", rename_pairs_to_json(&s.src_renames)),
    ])
}

fn scheduled_from_json(j: &Json) -> Option<ScheduledInstr> {
    Some(ScheduledInstr {
        d: dyninstr_from_json(j.get("d")?)?,
        reads: reslist_from_json(j.get("reads")?)?,
        writes: reslist_from_json(j.get("writes")?)?,
        tag: u8_of(j, "tag")?,
        ls_order: opt_u16_of(j, "ls_order")?,
        cross: bool_of(j, "cross")?,
        src_renames: rename_pairs_from_json(j.get("src_renames")?)?,
    })
}

fn copy_to_json(c: &CopyInstr) -> Json {
    Json::obj([
        ("pairs", rename_pairs_to_json(&c.pairs)),
        ("tag", Json::U64(c.tag as u64)),
        (
            "ls_order",
            match c.ls_order {
                Some(o) => Json::U64(o as u64),
                None => Json::Null,
            },
        ),
        ("cross", Json::Bool(c.cross)),
        ("orig_seq", Json::U64(c.orig_seq)),
    ])
}

fn copy_from_json(j: &Json) -> Option<CopyInstr> {
    Some(CopyInstr {
        // A COPY holds at most four pairs (`RenamePairs`).
        pairs: Some(rename_pairs_from_json(j.get("pairs")?)?)
            .filter(|p| p.len() <= 4)?
            .into_iter()
            .collect(),
        tag: u8_of(j, "tag")?,
        ls_order: opt_u16_of(j, "ls_order")?,
        cross: bool_of(j, "cross")?,
        orig_seq: u64_of(j, "orig_seq")?,
    })
}

fn slotop_to_json(op: &SlotOp) -> Json {
    match op {
        SlotOp::Instr(s) => {
            let mut j = scheduled_to_json(s);
            if let Json::Obj(pairs) = &mut j {
                pairs.insert(0, ("op".to_string(), Json::Str("instr".to_string())));
            }
            j
        }
        SlotOp::Copy(c) => {
            let mut j = copy_to_json(c);
            if let Json::Obj(pairs) = &mut j {
                pairs.insert(0, ("op".to_string(), Json::Str("copy".to_string())));
            }
            j
        }
    }
}

fn slotop_from_json(j: &Json) -> Option<SlotOp> {
    match j.get("op")?.as_str()? {
        "instr" => Some(SlotOp::Instr(scheduled_from_json(j)?)),
        "copy" => Some(SlotOp::Copy(copy_from_json(j)?)),
        _ => None,
    }
}

fn longinstr_to_json(li: &LongInstr) -> Json {
    Json::Arr(
        li.slots()
            .map(|s| s.map_or(Json::Null, slotop_to_json))
            .collect(),
    )
}

/// `None` for a row wider than [`MAX_WIDTH`] (the occupancy mask's
/// limit) or holding a malformed op.
fn longinstr_from_json(j: &Json) -> Option<LongInstr> {
    let slots = j.as_arr()?;
    if slots.len() > MAX_WIDTH {
        return None;
    }
    let (mut occupied, mut ops) = (0u64, Vec::new());
    for (s, v) in slots.iter().enumerate() {
        if !matches!(v, Json::Null) {
            occupied |= 1 << s;
            ops.push(slotop_from_json(v)?);
        }
    }
    Some(LongInstr::new(slots.len(), occupied, ops))
}

impl RenameCounts {
    /// Parse back from the [`dtsvliw_json::ToJson`] form.
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(RenameCounts {
            int: u32_of(j, "int")?,
            fp: u32_of(j, "fp")?,
            flag: u32_of(j, "flag")?,
            mem: u32_of(j, "mem")?,
        })
    }
}

/// A sealed block, exactly as installed in the VLIW Cache (every slot
/// operation with tags, order/cross bits and renames, plus the nba
/// store).
pub fn block_to_json(b: &Block) -> Json {
    Json::obj([
        ("tag_addr", Json::U64(b.tag_addr as u64)),
        ("entry_cwp", Json::U64(b.entry_cwp as u64)),
        ("entry_resident", Json::U64(b.entry_resident as u64)),
        ("window_sensitive", Json::Bool(b.window_sensitive)),
        ("nba_addr", Json::U64(b.nba_addr as u64)),
        ("renames", dtsvliw_json::ToJson::to_json(&b.renames)),
        ("first_seq", Json::U64(b.first_seq)),
        ("trace_len", Json::U64(b.trace_len as u64)),
        (
            "lis",
            Json::Arr(b.lis.iter().map(longinstr_to_json).collect()),
        ),
    ])
}

/// Inverse of [`block_to_json`]. `None` for a block no scheduler can
/// seal: one without long instructions, or with rows of unequal width.
pub fn block_from_json(j: &Json) -> Option<Block> {
    let mut lis = Vec::new();
    for li in j.get("lis")?.as_arr()? {
        lis.push(longinstr_from_json(li)?);
    }
    let width = lis.first()?.width();
    if lis.iter().any(|li| li.width() != width) {
        return None;
    }
    Some(Block {
        tag_addr: u32_of(j, "tag_addr")?,
        entry_cwp: u8_of(j, "entry_cwp")?,
        entry_resident: u8_of(j, "entry_resident")?,
        window_sensitive: bool_of(j, "window_sensitive")?,
        nba_addr: u32_of(j, "nba_addr")?,
        renames: RenameCounts::from_json(j.get("renames")?)?,
        first_seq: u64_of(j, "first_seq")?,
        trace_len: u32_of(j, "trace_len")?,
        lis,
    })
}

// -----------------------------------------------------------------
// The in-flight scheduling list
// -----------------------------------------------------------------

impl SchedStats {
    /// Parse back from the [`dtsvliw_json::ToJson`] form (the derived
    /// `slot_utilisation` member is ignored).
    pub fn from_json(j: &Json) -> Option<Self> {
        Some(SchedStats {
            blocks: u64_of(j, "blocks")?,
            lis: u64_of(j, "lis")?,
            slots_filled: u64_of(j, "slots_filled")?,
            slots_total: u64_of(j, "slots_total")?,
            instrs: u64_of(j, "instrs")?,
            ignored: u64_of(j, "ignored")?,
            installs: u64_of(j, "installs")?,
            moves: u64_of(j, "moves")?,
            splits: u64_of(j, "splits")?,
            rename_hw: RenameCounts::from_json(j.get("rename_hw")?)?,
        })
    }
}

impl Scheduler {
    /// Serialise the complete mutable state: the block under
    /// construction (elements, candidates, branch-tag and load/store
    /// counters, rename allocator) and the aggregate statistics. The
    /// configuration is *not* included — restore re-derives it from the
    /// machine configuration, which the snapshot header pins by digest.
    pub fn snapshot_json(&self) -> Json {
        let elems = self
            .view()
            .iter()
            .map(|e| {
                Json::obj([
                    ("li", longinstr_to_json(&e.li)),
                    ("cur_tag", Json::U64(e.cur_tag as u64)),
                    (
                        "candidate",
                        match e.candidate_op() {
                            None => Json::Null,
                            Some((op, slot)) => Json::obj([
                                ("op", scheduled_to_json(op)),
                                ("slot", Json::U64(slot as u64)),
                            ]),
                        },
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("elems", Json::Arr(elems)),
            ("block_tag", Json::U64(self.block_tag as u64)),
            ("entry_cwp", Json::U64(self.entry_cwp as u64)),
            ("entry_resident", Json::U64(self.entry_resident as u64)),
            ("window_sensitive", Json::Bool(self.window_sensitive)),
            ("ls_counter", Json::U64(self.ls_counter as u64)),
            ("renames", dtsvliw_json::ToJson::to_json(&self.renames)),
            ("first_seq", Json::U64(self.first_seq)),
            ("stats", dtsvliw_json::ToJson::to_json(&self.stats())),
        ])
    }

    /// Rebuild a scheduler from [`Scheduler::snapshot_json`] output and
    /// the configuration it ran with. `None` for any malformed input,
    /// including more elements than the list holds and a candidate that
    /// is not the instruction in its slot (the list stores each op once,
    /// so `tick` can never produce that state).
    pub fn from_snapshot_json(cfg: SchedConfig, j: &Json) -> Option<Scheduler> {
        let mut s = Scheduler::new(cfg);
        for e in j.get("elems")?.as_arr()? {
            let li = longinstr_from_json(e.get("li")?)?;
            let candidate = match e.get("candidate")? {
                Json::Null => None,
                c => {
                    let slot = usize::try_from(u64_of(c, "slot")?).ok()?;
                    let op = scheduled_from_json(c.get("op")?)?;
                    match li.get(slot) {
                        Some(SlotOp::Instr(companion)) if *companion == op => Some(slot),
                        _ => return None,
                    }
                }
            };
            s.push_view(ElemView {
                li,
                cur_tag: u8_of(e, "cur_tag")?,
                candidate,
            })?;
        }
        s.block_tag = u32_of(j, "block_tag")?;
        s.entry_cwp = u8_of(j, "entry_cwp")?;
        s.entry_resident = u8_of(j, "entry_resident")?;
        s.window_sensitive = bool_of(j, "window_sensitive")?;
        s.ls_counter = u16_of(j, "ls_counter")?;
        s.renames = RenameCounts::from_json(j.get("renames")?)?;
        s.first_seq = u64_of(j, "first_seq")?;
        s.stats = SchedStats::from_json(j.get("stats")?)?;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::InsertOutcome;
    use dtsvliw_isa::insn::{AluOp, MemOp, Src2};
    use dtsvliw_isa::Instr;

    fn di(seq: u64, instr: Instr) -> DynInstr {
        DynInstr {
            seq,
            pc: 0x1000 + 4 * seq as u32,
            instr,
            cwp_before: 0,
            cwp_after: 0,
            eff_addr: if instr.is_mem() { Some(0x2000) } else { None },
            taken: None,
            target: None,
            delay_is_nop: true,
        }
    }

    #[test]
    fn resource_round_trip() {
        let all = [
            Resource::Int(37),
            Resource::IntRen(3),
            Resource::Fp(31),
            Resource::FpRen(0),
            Resource::Icc,
            Resource::IccRen(2),
            Resource::Fcc,
            Resource::FccRen(1),
            Resource::Y,
            Resource::Cwp,
            Resource::Mem {
                addr: 0x2000,
                size: 4,
            },
            Resource::MemRen(9),
        ];
        for r in all {
            let j = resource_to_json(&r);
            assert_eq!(resource_from_json(&j), Some(r), "{j}");
        }
        assert_eq!(resource_from_json(&Json::Str("zz:1".into())), None);
        let l: ResList = all[..4].iter().copied().collect();
        let l2 = reslist_from_json(&reslist_to_json(&l)).unwrap();
        assert!(l.iter().eq(l2.iter()));
    }

    #[test]
    fn dyninstr_round_trip() {
        let mut d = di(
            7,
            Instr::Mem {
                op: MemOp::St,
                rd: 8,
                rs1: 9,
                src2: Src2::Imm(4),
            },
        );
        d.taken = Some(true);
        d.target = Some(0x1040);
        let back = dyninstr_from_json(&dyninstr_to_json(&d)).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn arch_state_round_trip() {
        let mut s = ArchState::new(0x1000);
        s.int[5] = 0xdead_beef;
        s.fp[2] = 42;
        s.icc = Icc::from_bits(0b1010);
        s.fcc = Fcc::Gt;
        s.y = 7;
        s.cwp = 3;
        s.resident = 2;
        s.npc = 0x1008;
        let back = arch_state_from_json(&arch_state_to_json(&s)).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn block_round_trip_preserves_content_hash() {
        // Drive a real scheduler so the block carries tags, orders,
        // renames and COPYs.
        let mut s = Scheduler::new(SchedConfig::homogeneous(4, 4));
        let prog = [
            di(
                0,
                Instr::Alu {
                    op: AluOp::Add,
                    cc: true,
                    rd: 9,
                    rs1: 9,
                    src2: Src2::Imm(1),
                },
            ),
            di(
                1,
                Instr::Mem {
                    op: MemOp::Ld,
                    rd: 10,
                    rs1: 9,
                    src2: Src2::Imm(0),
                },
            ),
            di(
                2,
                Instr::Alu {
                    op: AluOp::Add,
                    cc: true,
                    rd: 9,
                    rs1: 10,
                    src2: Src2::Imm(2),
                },
            ),
            di(
                3,
                Instr::Mem {
                    op: MemOp::St,
                    rd: 9,
                    rs1: 10,
                    src2: Src2::Imm(8),
                },
            ),
        ];
        for d in &prog {
            s.insert(d, 1);
            s.tick();
        }
        let block = s.seal(0x2000, 4).expect("non-empty block");
        let j = block_to_json(&block);
        let text = j.to_string();
        let back = block_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(block, back);
        assert_eq!(block.content_hash(), back.content_hash());
    }

    #[test]
    fn scheduler_snapshot_round_trip_mid_block() {
        let cfg = SchedConfig::homogeneous(3, 4);
        let mut s = Scheduler::new(cfg.clone());
        let alu = |rd: u8, rs1: u8, src2: Src2| Instr::Alu {
            op: AluOp::Add,
            cc: false,
            rd,
            rs1,
            src2,
        };
        // %o1's reader waits below %o0's writer; the %o2 increment joins
        // it as a candidate that has not yet had a cycle to move up.
        let (o0, o1, o2) = (8, 9, 10);
        for (seq, (instr, ticks)) in [
            (alu(o0, o0, Src2::Imm(1)), 1),
            (alu(o1, o0, Src2::Imm(1)), 1),
            (alu(o2, o2, Src2::Imm(1)), 0),
        ]
        .into_iter()
        .enumerate()
        {
            s.insert(&di(seq as u64, instr), 1);
            for _ in 0..ticks {
                s.tick();
            }
        }
        assert_eq!(s.len(), 2, "mid-block state expected");
        let j = s.snapshot_json();
        let mut restored =
            Scheduler::from_snapshot_json(cfg.clone(), &Json::parse(&j.to_string()).unwrap())
                .expect("restore");

        // Both lists keep scheduling, as the machine drives them (the
        // cycles first, then the insert), for more than `height`
        // instructions before sealing, so a restore that rebuilt the
        // candidate mask or the rows' saved unions wrongly shows in the
        // blocks. The first cycle moves the %o2 increment up. `c` joins
        // `y`, which reads %l0, so moving `c` up needs an
        // anti-dependency split; `d`, inserted before that cycle, reads
        // %l0 and is redirected to the renaming register. The %l5 chain
        // fills the list and seals it.
        let (l0, l1, l2, l3, l4, l5) = (16, 17, 18, 19, 20, 21);
        let more = [
            (alu(l1, o2, Src2::Imm(1)), 1),
            (alu(l2, l1, Src2::Reg(l0)), 1),
            (alu(l0, l3, Src2::Imm(1)), 1),
            (alu(l4, l0, Src2::Imm(1)), 0),
            (alu(l3, l4, Src2::Imm(2)), 1),
            (alu(l1, l2, Src2::Imm(3)), 1),
            (alu(l5, l5, Src2::Imm(1)), 1),
            (alu(l5, l5, Src2::Imm(1)), 1),
        ];
        assert!(more.len() > cfg.height);
        let splits = s.stats().splits;
        let mut sealed = (Vec::new(), Vec::new());
        for (k, &(instr, ticks)) in more.iter().enumerate() {
            let d = di(3 + k as u64, instr);
            for (sched, out) in [(&mut s, &mut sealed.0), (&mut restored, &mut sealed.1)] {
                for _ in 0..ticks {
                    sched.tick();
                }
                if let InsertOutcome::Inserted(Some(b)) = sched.insert(&d, 1) {
                    out.push(b);
                }
            }
        }
        let next = 3 + more.len() as u64;
        sealed.0.extend(s.seal(0x9000, next));
        sealed.1.extend(restored.seal(0x9000, next));
        assert_eq!(sealed.0, sealed.1);
        for (a, b) in sealed.0.iter().zip(&sealed.1) {
            assert_eq!(a.content_hash(), b.content_hash());
        }
        assert_eq!(s.stats(), restored.stats());
        assert!(s.stats().splits > splits, "no split after the restore");
        let redirected = sealed
            .0
            .iter()
            .flat_map(|b| &b.lis)
            .flat_map(LongInstr::ops)
            .any(|op| matches!(op, SlotOp::Instr(i) if !i.src_renames.is_empty()));
        assert!(redirected, "no redirection after the restore");
    }

    /// Mutable access to one member of a JSON object.
    fn member<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(pairs) = j else {
            panic!("not an object");
        };
        &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    /// A mid-block list whose tail element holds a candidate.
    fn mid_block(cfg: &SchedConfig) -> Json {
        let mut s = Scheduler::new(cfg.clone());
        for seq in 0..3 {
            s.insert(
                &di(
                    seq,
                    Instr::Alu {
                        op: AluOp::Add,
                        cc: false,
                        rd: 8 + seq as u8,
                        rs1: 8 + seq as u8,
                        src2: Src2::Imm(1),
                    },
                ),
                1,
            );
        }
        s.snapshot_json()
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(block_from_json(&Json::obj([("tag_addr", Json::U64(1))])).is_none());
        assert!(Scheduler::from_snapshot_json(
            SchedConfig::homogeneous(2, 2),
            &Json::obj([("elems", Json::Arr(vec![Json::Null]))])
        )
        .is_none());

        let cfg = SchedConfig::homogeneous(4, 2);
        let good = mid_block(&cfg);
        assert!(Scheduler::from_snapshot_json(cfg.clone(), &good).is_some());

        // A candidate that is not the instruction in its slot.
        let mut stray = good.clone();
        let Json::Arr(elems) = member(&mut stray, "elems") else {
            panic!("elems is an array");
        };
        let op = member(member(&mut elems[0], "candidate"), "op");
        *member(op, "tag") = Json::U64(7);
        assert!(Scheduler::from_snapshot_json(cfg.clone(), &stray).is_none());

        // A candidate naming an empty slot.
        let mut empty = good.clone();
        let Json::Arr(elems) = member(&mut empty, "elems") else {
            panic!("elems is an array");
        };
        *member(member(&mut elems[0], "candidate"), "slot") = Json::U64(3);
        assert!(Scheduler::from_snapshot_json(cfg.clone(), &empty).is_none());

        // More elements than the list holds.
        let mut long = good;
        let Json::Arr(elems) = member(&mut long, "elems") else {
            panic!("elems is an array");
        };
        let e = elems[0].clone();
        elems.extend([e.clone(), e]);
        assert!(Scheduler::from_snapshot_json(cfg, &long).is_none());
    }
}
