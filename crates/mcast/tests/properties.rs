//! Property-based tests for multicast group keying.

use cvr_content::cache::{DeliveryLedger, UndeliveredSums};
use cvr_content::grid::CellId;
use cvr_content::id::VideoId;
use cvr_content::tile::TileId;
use cvr_core::quality::QualityLevel;
use cvr_mcast::content_fingerprint;
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The group-key fingerprint before it read the accumulator's mask: one
/// ledger probe per (tile, level). Kept verbatim as the bit-identity
/// oracle.
fn ledger_probing_fingerprint(
    cell: CellId,
    tiles: &[TileId],
    sums: &[f64],
    ledger: &DeliveryLedger,
) -> u64 {
    let mut hash = FNV_OFFSET;
    hash = fnv(hash, &(tiles.len() as u64).to_le_bytes());
    for &tile in tiles {
        hash = fnv(hash, &[tile.get()]);
        for l in 1..=sums.len() as u8 {
            let delivered = ledger.is_delivered(&VideoId::new(cell, tile, QualityLevel::new(l)));
            hash = fnv(hash, &[u8::from(delivered)]);
        }
    }
    for &s in sums {
        hash = fnv(hash, &s.to_bits().to_le_bytes());
    }
    hash
}

/// One event on a user's delivery state, over cells `x ∈ 0..3`.
#[derive(Debug, Clone)]
enum Event {
    /// Retarget at cell `x` with the tiles picked by a non-empty bitmask.
    Retarget {
        x: i32,
        mask: u8,
    },
    Ack {
        x: i32,
        tile: u8,
        level: u8,
    },
    Release {
        x: i32,
        tile: u8,
        level: u8,
    },
}

/// Events drawn for a six-level ladder; levels above a run's ladder are
/// folded into it by `level % levels`.
fn arb_event() -> impl Strategy<Value = Event> {
    (0u8..10, 0i32..3, 1u8..16, 0u8..4, 0u8..6).prop_map(
        |(kind, x, mask, tile, level)| match kind {
            0 => Event::Retarget { x, mask },
            1..=6 => Event::Ack { x, tile, level },
            _ => Event::Release { x, tile, level },
        },
    )
}

proptest! {
    // Reading the delivered bits from the accumulator's mask gives the
    // fingerprint the ledger probes gave, after every ACK, release and
    // retarget — including ACKs of tiles outside the target and
    // releases of ids never delivered.
    #[test]
    fn mask_fingerprint_matches_ledger_probes(
        levels in 1usize..=6,
        events in prop::collection::vec(arb_event(), 1..120),
    ) {
        let count = usize::from(TileId::COUNT);
        // A level-major `levels × 4` rate table per cell, distinct values
        // so every sum depends on which tiles are delivered.
        let rows = |x: i32| -> Vec<f64> {
            (0..levels * count).map(|i| 0.37 * (i + 1) as f64 + f64::from(x)).collect()
        };
        let id = |x: i32, tile: u8, level: u8| {
            let q = QualityLevel::new(level % levels as u8 + 1);
            VideoId::new(CellId { x, z: 0 }, TileId::new(tile), q)
        };
        let mut ledger = DeliveryLedger::new();
        let mut undelivered = UndeliveredSums::new(levels);
        for event in events {
            match event {
                Event::Retarget { x, mask } => {
                    let tiles: Vec<TileId> = TileId::all()
                        .into_iter()
                        .filter(|t| mask & (1 << t.get()) != 0)
                        .collect();
                    undelivered.retarget(CellId { x, z: 0 }, &tiles, &rows(x), &ledger);
                }
                Event::Ack { x, tile, level } => {
                    undelivered.acknowledge(&mut ledger, id(x, tile, level));
                }
                Event::Release { x, tile, level } => {
                    undelivered.release(&mut ledger, [id(x, tile, level)]);
                }
            }
            let Some(cell) = undelivered.cell() else {
                continue;
            };
            prop_assert_eq!(
                content_fingerprint(&undelivered),
                ledger_probing_fingerprint(cell, undelivered.tiles(), undelivered.sums(), &ledger)
            );
        }
    }
}
