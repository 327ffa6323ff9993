//! Cross-commit behaviour pin: a 64-bit FNV-1a digest of the full
//! `Debug` rendering of [`busarb_sim::RunReport`] for every protocol ×
//! both arbitration start rules × both draw engines × three workloads,
//! compared against a committed table.
//!
//! `soa_equiv` proves the event loop agrees with the legacy oracle
//! *within* one commit; this table proves a commit agrees with the one
//! before it. It covers what the `results/` goldens never run: the fast
//! draw engine, the two-word calendar (`N > 64`) and the protocols
//! `repro all` does not sweep. The `Debug` string spans every field of
//! the report — waits, batch means, per-agent tallies, CDF, trace and the
//! engine metrics snapshot — so an unchanged digest means an unchanged
//! report.
//!
//! A deliberate behaviour change must update [`DIGESTS`]; the failure
//! message prints the whole table as it now stands.

use busarb_core::ProtocolKind;
use busarb_sim::{ArbitrationStartRule, Simulation, SystemConfig};
use busarb_stats::BatchMeansConfig;
use busarb_workload::{CoherenceConfig, DrawEngineKind, Scenario};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned workloads: open loop on the one-word calendar (N = 10),
/// open loop on the two-word calendar (N = 80), and the closed-loop MESI
/// default mix (N = 8).
fn workloads() -> [(&'static str, u32, Scenario); 3] {
    [
        (
            "open-10",
            10,
            Scenario::equal_load(10, 0.9, 1.0).expect("valid scenario"),
        ),
        (
            "open-80",
            80,
            Scenario::equal_load(80, 0.9, 1.0).expect("valid scenario"),
        ),
        (
            "mesi-8",
            8,
            Scenario::closed_loop(8, CoherenceConfig::default_mix()).expect("valid scenario"),
        ),
    ]
}

/// Runs every pinned cell through `Simulation::run_kind` and returns
/// `(key, digest)` in table order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (workload, n, scenario) in workloads() {
        for &kind in ProtocolKind::all() {
            for rule in [
                ArbitrationStartRule::Greedy,
                ArbitrationStartRule::TransactionAligned,
            ] {
                for engine in [DrawEngineKind::Reference, DrawEngineKind::Fast] {
                    let config = SystemConfig::new(scenario.clone())
                        .with_batches(BatchMeansConfig::quick(40))
                        .with_warmup(20)
                        .with_seed(0x5EED_D16E)
                        .with_draw_engine(engine)
                        .with_start_rule(rule)
                        .with_cdf()
                        .with_trace(24);
                    let report = Simulation::new(config)
                        .expect("valid config")
                        .run_kind(kind)
                        .expect("valid size");
                    assert_eq!(report.metrics.agents, n);
                    let rule = match rule {
                        ArbitrationStartRule::Greedy => "greedy",
                        ArbitrationStartRule::TransactionAligned => "aligned",
                    };
                    let engine = match engine {
                        DrawEngineKind::Reference => "ref",
                        DrawEngineKind::Fast => "fast",
                    };
                    let key = format!("{workload}/{kind}/{rule}/{engine}");
                    out.push((key, fnv1a(format!("{report:?}").as_bytes())));
                }
            }
        }
    }
    out
}

#[test]
fn run_reports_match_the_committed_digests() {
    let actual = digests();
    let table: String = actual
        .iter()
        .map(|(key, digest)| format!("    (\"{key}\", 0x{digest:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = DIGESTS
        .iter()
        .map(|&(key, digest)| (key.to_string(), digest))
        .collect();
    let diverged: Vec<&str> = actual
        .iter()
        .filter(|cell| !expected.contains(cell))
        .map(|(key, _)| key.as_str())
        .collect();
    assert!(
        actual == expected,
        "{} of {} run reports diverged from the committed digests \
         (first: {:?}); the table now reads:\n{table}",
        diverged.len(),
        actual.len(),
        diverged.first(),
    );
}

/// `(workload/protocol/start rule/engine, FNV-1a of the report's Debug)`.
/// The closed-loop rows coincide across start rules at this size; the
/// open-loop rows are all distinct.
const DIGESTS: &[(&str, u64)] = &[
    ("open-10/fixed-priority/greedy/ref", 0xcd148221ec25ea04),
    ("open-10/fixed-priority/greedy/fast", 0x46c63f15142507a9),
    ("open-10/fixed-priority/aligned/ref", 0x24feed9d796f26dc),
    ("open-10/fixed-priority/aligned/fast", 0x1f6d0f9431feb3cd),
    ("open-10/aap-1/greedy/ref", 0x73c59f31289ef967),
    ("open-10/aap-1/greedy/fast", 0x6204c01245d42f01),
    ("open-10/aap-1/aligned/ref", 0x0187a81b2d58fc64),
    ("open-10/aap-1/aligned/fast", 0x1c96378ba16eae6a),
    ("open-10/aap-2/greedy/ref", 0x9daa18502ead711a),
    ("open-10/aap-2/greedy/fast", 0xb07d909948a74539),
    ("open-10/aap-2/aligned/ref", 0x8ad699b235941563),
    ("open-10/aap-2/aligned/fast", 0x01a026a7b4bc2e0e),
    ("open-10/aap-2m/greedy/ref", 0xcaec36f9027de550),
    ("open-10/aap-2m/greedy/fast", 0x1a7c41ca85f62310),
    ("open-10/aap-2m/aligned/ref", 0xf9e559be2ddd99c3),
    ("open-10/aap-2m/aligned/fast", 0x55592efc966a6d85),
    ("open-10/rr/greedy/ref", 0x65cfb19f3d393aa3),
    ("open-10/rr/greedy/fast", 0x4efde93ad1d4cf88),
    ("open-10/rr/aligned/ref", 0x5de5146c2c00d56b),
    ("open-10/rr/aligned/fast", 0x908cb79a99628ce6),
    ("open-10/fcfs-1/greedy/ref", 0x2ceb58cb08295621),
    ("open-10/fcfs-1/greedy/fast", 0x47589d0c4e0309c4),
    ("open-10/fcfs-1/aligned/ref", 0x9356160b01922576),
    ("open-10/fcfs-1/aligned/fast", 0xdf453ac71f338c4f),
    ("open-10/fcfs-2/greedy/ref", 0x10a1e2379b408e02),
    ("open-10/fcfs-2/greedy/fast", 0xfe4500e8f28df150),
    ("open-10/fcfs-2/aligned/ref", 0x7bf9a89691e319be),
    ("open-10/fcfs-2/aligned/fast", 0x8b6a7d633c2a5984),
    ("open-10/central-rr/greedy/ref", 0x8c461f1a6c17f433),
    ("open-10/central-rr/greedy/fast", 0x77c11d0b82c3ac38),
    ("open-10/central-rr/aligned/ref", 0x0078b9bac8a0ee7b),
    ("open-10/central-rr/aligned/fast", 0x1eaceb074934acd6),
    ("open-10/central-fcfs/greedy/ref", 0x5cee8c9d179d9819),
    ("open-10/central-fcfs/greedy/fast", 0xdb159d79d6697d0f),
    ("open-10/central-fcfs/aligned/ref", 0xf4e81225948b2e59),
    ("open-10/central-fcfs/aligned/fast", 0xf3eb878b269297e1),
    ("open-10/hybrid/greedy/ref", 0x7e02bda31c01e25f),
    ("open-10/hybrid/greedy/fast", 0x5a281bd790dc682d),
    ("open-10/hybrid/aligned/ref", 0x03a4dae9f81c46a3),
    ("open-10/hybrid/aligned/fast", 0x74776fcc62a09f63),
    ("open-10/adaptive/greedy/ref", 0x363d4a4f2c597767),
    ("open-10/adaptive/greedy/fast", 0x195ade731ee3d195),
    ("open-10/adaptive/aligned/ref", 0xa13ffd45369fda7b),
    ("open-10/adaptive/aligned/fast", 0x7d095f8d6c14010b),
    ("open-10/rotating-rr/greedy/ref", 0xaf14257ada6f7320),
    ("open-10/rotating-rr/greedy/fast", 0x5e57751922972221),
    ("open-10/rotating-rr/aligned/ref", 0x787c8635d57ceac4),
    ("open-10/rotating-rr/aligned/fast", 0xc03651daaaa6ca61),
    ("open-10/ticket-fcfs/greedy/ref", 0xa82771b92587a028),
    ("open-10/ticket-fcfs/greedy/fast", 0x74050a9c74657c5e),
    ("open-10/ticket-fcfs/aligned/ref", 0xf59eefcaab653c30),
    ("open-10/ticket-fcfs/aligned/fast", 0x22f3eda55e1b20a6),
    ("open-80/fixed-priority/greedy/ref", 0x2edec8d296a3b083),
    ("open-80/fixed-priority/greedy/fast", 0xb329fc10d30041e5),
    ("open-80/fixed-priority/aligned/ref", 0x30880d75e4923fcc),
    ("open-80/fixed-priority/aligned/fast", 0xcbf1210a2e07d41c),
    ("open-80/aap-1/greedy/ref", 0xa0885b931f981666),
    ("open-80/aap-1/greedy/fast", 0xa9f061c217ebad9b),
    ("open-80/aap-1/aligned/ref", 0x5a47169bc3cd211d),
    ("open-80/aap-1/aligned/fast", 0xa7f713017e6dcb05),
    ("open-80/aap-2/greedy/ref", 0x5429e1713ae675bd),
    ("open-80/aap-2/greedy/fast", 0x0cca491034020a64),
    ("open-80/aap-2/aligned/ref", 0x27b43089f14316e9),
    ("open-80/aap-2/aligned/fast", 0x5bdac883cf6af61d),
    ("open-80/aap-2m/greedy/ref", 0x716b49bf88e6d4cf),
    ("open-80/aap-2m/greedy/fast", 0xf799d769da2452e9),
    ("open-80/aap-2m/aligned/ref", 0x7ee564d157ea7024),
    ("open-80/aap-2m/aligned/fast", 0x205c80656e4e4904),
    ("open-80/rr/greedy/ref", 0x2ac3005f265adf7c),
    ("open-80/rr/greedy/fast", 0xa17e37eca09423c5),
    ("open-80/rr/aligned/ref", 0xaf33877b784e464d),
    ("open-80/rr/aligned/fast", 0x923035b944067537),
    ("open-80/fcfs-1/greedy/ref", 0xf94bf3ee72c8ba85),
    ("open-80/fcfs-1/greedy/fast", 0x2db91812721f4207),
    ("open-80/fcfs-1/aligned/ref", 0x97a208a17856aca7),
    ("open-80/fcfs-1/aligned/fast", 0xd5cc826ac8c8e796),
    ("open-80/fcfs-2/greedy/ref", 0x5e721441f22e3d27),
    ("open-80/fcfs-2/greedy/fast", 0xbe8c43edf024e2aa),
    ("open-80/fcfs-2/aligned/ref", 0x6e593202b0507c69),
    ("open-80/fcfs-2/aligned/fast", 0x59d576368f70cf0c),
    ("open-80/central-rr/greedy/ref", 0xf2c365270eecb84c),
    ("open-80/central-rr/greedy/fast", 0x0758123b75fce955),
    ("open-80/central-rr/aligned/ref", 0x543cf3515fd554dd),
    ("open-80/central-rr/aligned/fast", 0xaf876a900dd33c47),
    ("open-80/central-fcfs/greedy/ref", 0xb7505fda49b56e68),
    ("open-80/central-fcfs/greedy/fast", 0x4b520c7d52f36fbd),
    ("open-80/central-fcfs/aligned/ref", 0x2f59bc8fd82d3eac),
    ("open-80/central-fcfs/aligned/fast", 0x846d93a45416ebc5),
    ("open-80/hybrid/greedy/ref", 0x723ea535755b6f8e),
    ("open-80/hybrid/greedy/fast", 0xf23d875528f1cc13),
    ("open-80/hybrid/aligned/ref", 0x5a40aaf19a7649be),
    ("open-80/hybrid/aligned/fast", 0x475106ab56f6adc7),
    ("open-80/adaptive/greedy/ref", 0x3fb07e2c189760a6),
    ("open-80/adaptive/greedy/fast", 0xbc9f69af1a476abb),
    ("open-80/adaptive/aligned/ref", 0xa33bb7829e1718b6),
    ("open-80/adaptive/aligned/fast", 0x47f729a36482ac2f),
    ("open-80/rotating-rr/greedy/ref", 0x887bf9b41e01616b),
    ("open-80/rotating-rr/greedy/fast", 0x4453cb5dfd7cfb1a),
    ("open-80/rotating-rr/aligned/ref", 0x7a8f67d30f156dca),
    ("open-80/rotating-rr/aligned/fast", 0x68f59ff99b8f7b56),
    ("open-80/ticket-fcfs/greedy/ref", 0xd08eb43be604cb45),
    ("open-80/ticket-fcfs/greedy/fast", 0xcfdf1ad4e9581e38),
    ("open-80/ticket-fcfs/aligned/ref", 0xfe2b85923a38c773),
    ("open-80/ticket-fcfs/aligned/fast", 0x55ceda8c0642c476),
    ("mesi-8/fixed-priority/greedy/ref", 0xec02d2385321b3e8),
    ("mesi-8/fixed-priority/greedy/fast", 0xe902ac97f6a0e1d4),
    ("mesi-8/fixed-priority/aligned/ref", 0xec02d2385321b3e8),
    ("mesi-8/fixed-priority/aligned/fast", 0xe902ac97f6a0e1d4),
    ("mesi-8/aap-1/greedy/ref", 0xd5d9ae7f45e098fc),
    ("mesi-8/aap-1/greedy/fast", 0x44ee44b2d6cb07dc),
    ("mesi-8/aap-1/aligned/ref", 0xd5d9ae7f45e098fc),
    ("mesi-8/aap-1/aligned/fast", 0x44ee44b2d6cb07dc),
    ("mesi-8/aap-2/greedy/ref", 0x170a57269fcabe90),
    ("mesi-8/aap-2/greedy/fast", 0xbbc8d963381c948a),
    ("mesi-8/aap-2/aligned/ref", 0x170a57269fcabe90),
    ("mesi-8/aap-2/aligned/fast", 0xbbc8d963381c948a),
    ("mesi-8/aap-2m/greedy/ref", 0x13fc210c06d4f63c),
    ("mesi-8/aap-2m/greedy/fast", 0x61aca131376c9dbe),
    ("mesi-8/aap-2m/aligned/ref", 0x13fc210c06d4f63c),
    ("mesi-8/aap-2m/aligned/fast", 0x61aca131376c9dbe),
    ("mesi-8/rr/greedy/ref", 0xce8a76097f109929),
    ("mesi-8/rr/greedy/fast", 0x9526160df2ee5ebb),
    ("mesi-8/rr/aligned/ref", 0xce8a76097f109929),
    ("mesi-8/rr/aligned/fast", 0x9526160df2ee5ebb),
    ("mesi-8/fcfs-1/greedy/ref", 0xb0b20131d25c7d5e),
    ("mesi-8/fcfs-1/greedy/fast", 0x8ec15f138557db36),
    ("mesi-8/fcfs-1/aligned/ref", 0xb0b20131d25c7d5e),
    ("mesi-8/fcfs-1/aligned/fast", 0x8ec15f138557db36),
    ("mesi-8/fcfs-2/greedy/ref", 0x492c7e44e34bac5f),
    ("mesi-8/fcfs-2/greedy/fast", 0x3a5f9e1ef0ade568),
    ("mesi-8/fcfs-2/aligned/ref", 0x492c7e44e34bac5f),
    ("mesi-8/fcfs-2/aligned/fast", 0x3a5f9e1ef0ade568),
    ("mesi-8/central-rr/greedy/ref", 0x49a0b82daac8d7d9),
    ("mesi-8/central-rr/greedy/fast", 0xb85dfd02930d8f6b),
    ("mesi-8/central-rr/aligned/ref", 0x49a0b82daac8d7d9),
    ("mesi-8/central-rr/aligned/fast", 0xb85dfd02930d8f6b),
    ("mesi-8/central-fcfs/greedy/ref", 0x8b2a400c2590456c),
    ("mesi-8/central-fcfs/greedy/fast", 0xcb917a3f28331b1d),
    ("mesi-8/central-fcfs/aligned/ref", 0x8b2a400c2590456c),
    ("mesi-8/central-fcfs/aligned/fast", 0xcb917a3f28331b1d),
    ("mesi-8/hybrid/greedy/ref", 0x90e41ed9db6bb1da),
    ("mesi-8/hybrid/greedy/fast", 0x36044f44f6242ea3),
    ("mesi-8/hybrid/aligned/ref", 0x90e41ed9db6bb1da),
    ("mesi-8/hybrid/aligned/fast", 0x36044f44f6242ea3),
    ("mesi-8/adaptive/greedy/ref", 0xbda7bee32b133632),
    ("mesi-8/adaptive/greedy/fast", 0x6dcf389b16f7e9db),
    ("mesi-8/adaptive/aligned/ref", 0xbda7bee32b133632),
    ("mesi-8/adaptive/aligned/fast", 0x6dcf389b16f7e9db),
    ("mesi-8/rotating-rr/greedy/ref", 0x5735ce9b9ea148ae),
    ("mesi-8/rotating-rr/greedy/fast", 0x01d195ae44f4abe4),
    ("mesi-8/rotating-rr/aligned/ref", 0x5735ce9b9ea148ae),
    ("mesi-8/rotating-rr/aligned/fast", 0x01d195ae44f4abe4),
    ("mesi-8/ticket-fcfs/greedy/ref", 0x3c160c459eff6d7d),
    ("mesi-8/ticket-fcfs/greedy/fast", 0xa9d09977713c7612),
    ("mesi-8/ticket-fcfs/aligned/ref", 0x3c160c459eff6d7d),
    ("mesi-8/ticket-fcfs/aligned/fast", 0xa9d09977713c7612),
];
