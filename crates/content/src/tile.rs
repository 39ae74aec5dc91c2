//! Tile partitioning: each equirectangular texture is split into four tiles
//! (Fig. 5), and only tiles overlapping the (margin-extended) predicted FoV
//! are delivered.

use serde::{Deserialize, Serialize};

use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{wrap_degrees, Pose};

/// One of the four tiles of a frame texture (2×2 split: west/east ×
/// top/bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileId(u8);

impl TileId {
    /// Number of tiles per frame in the paper's partitioning.
    pub const COUNT: u8 = 4;

    /// Creates a tile id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 4`.
    pub fn new(id: u8) -> Self {
        assert!(id < Self::COUNT, "tile id out of range");
        TileId(id)
    }

    /// The raw id in `0..4`.
    pub fn get(self) -> u8 {
        self.0
    }

    /// All four tiles.
    pub fn all() -> [TileId; 4] {
        [TileId(0), TileId(1), TileId(2), TileId(3)]
    }

    /// Yaw interval `[start, end)` covered by this tile, degrees. Tiles 0/2
    /// cover the western half `[−180, 0)`, tiles 1/3 the eastern `[0, 180)`.
    pub fn yaw_range(self) -> (f64, f64) {
        if self.0.is_multiple_of(2) {
            (-180.0, 0.0)
        } else {
            (0.0, 180.0)
        }
    }

    /// Pitch interval `[low, high)` covered by this tile, degrees. Tiles
    /// 0/1 are the top half `[0, 90]`, tiles 2/3 the bottom `[−90, 0)`.
    pub fn pitch_range(self) -> (f64, f64) {
        if self.0 < 2 {
            (0.0, 90.0)
        } else {
            (-90.0, 0.0)
        }
    }
}

impl std::fmt::Display for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

/// The four-or-fewer tiles of one FoV request, held inline in
/// [`TileId::all`] order — the same set [`tiles_for_pose`] returns,
/// without a heap buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSet {
    tiles: [TileId; TileId::COUNT as usize],
    len: u8,
}

impl TileSet {
    /// The tiles overlapping the FoV (with margin) around `pose`.
    ///
    /// Pitch overlap is an interval test per tile. Yaw overlap samples the
    /// view interval at 17 evenly spaced angles: robust to wrapping, and
    /// each sample is wrapped once and classified into the western and
    /// eastern halves together, stopping as soon as both are hit. The
    /// `angle >= t0 && angle < t1` predicate makes NaN and ±inf poses hit
    /// neither half.
    pub fn for_pose(spec: &FovSpec, pose: &Pose) -> Self {
        let half_w = spec.width_deg / 2.0 + spec.margin_deg;
        let half_h = spec.height_deg / 2.0 + spec.margin_deg;
        let yaw = pose.orientation.yaw;
        // Clamp to the sphere: a pose with out-of-range pitch still views
        // content at the pole.
        let pitch = pose.orientation.pitch.clamp(-90.0, 90.0);
        let (p_lo, p_hi) = (pitch - half_h, pitch + half_h);

        // `yaw_hit[h]`: the view touches yaw half `h` (0 west, 1 east).
        let halves = [TileId(0).yaw_range(), TileId(1).yaw_range()];
        let mut yaw_hit = [half_w >= 180.0; 2];
        if !yaw_hit[0] {
            let (a0, a1) = (yaw - half_w, yaw + half_w);
            let span = a1 - a0;
            let steps = 16;
            for i in 0..=steps {
                let angle = wrap_degrees(a0 + span * i as f64 / steps as f64);
                for (hit, &(t0, t1)) in yaw_hit.iter_mut().zip(&halves) {
                    *hit |= angle >= t0 && angle < t1;
                }
                if yaw_hit == [true; 2] {
                    break;
                }
            }
        }

        let mut set = TileSet {
            tiles: [TileId(0); TileId::COUNT as usize],
            len: 0,
        };
        for tile in TileId::all() {
            let (t_p0, t_p1) = tile.pitch_range();
            if p_lo < t_p1 && p_hi > t_p0 && yaw_hit[usize::from(tile.0 % 2)] {
                set.tiles[usize::from(set.len)] = tile;
                set.len += 1;
            }
        }
        set
    }

    /// The tiles, in [`TileId::all`] order.
    pub fn as_slice(&self) -> &[TileId] {
        &self.tiles[..usize::from(self.len)]
    }
}

/// The set of tiles overlapping the FoV (with margin) around the given
/// pose — the tiles the server must deliver for that pose.
pub fn tiles_for_pose(spec: &FovSpec, pose: &Pose) -> Vec<TileId> {
    TileSet::for_pose(spec, pose).as_slice().to_vec()
}

/// Buffer-reusing variant of [`tiles_for_pose`]: clears `out` and fills it
/// with the same tile set, in the same order, without allocating once the
/// buffer has grown to four entries.
pub fn tiles_for_pose_into(spec: &FovSpec, pose: &Pose, out: &mut Vec<TileId>) {
    out.clear();
    out.extend_from_slice(TileSet::for_pose(spec, pose).as_slice());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_motion::pose::{Orientation, Vec3};

    fn pose(yaw: f64, pitch: f64) -> Pose {
        Pose::new(Vec3::default(), Orientation::new(yaw, pitch, 0.0))
    }

    #[test]
    fn tile_ranges_partition_the_sphere() {
        let mut covered = 0.0;
        for t in TileId::all() {
            let (y0, y1) = t.yaw_range();
            let (p0, p1) = t.pitch_range();
            covered += (y1 - y0) * (p1 - p0);
        }
        assert_eq!(covered, 360.0 * 180.0);
    }

    #[test]
    fn forward_gaze_needs_both_east_west_tiles() {
        // Looking straight ahead at yaw 0 the FoV straddles the 0° seam.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(0.0, 0.0));
        assert_eq!(tiles.len(), 4, "level gaze at a seam needs all quadrants");
    }

    #[test]
    fn gaze_inside_one_hemisphere_skips_the_other() {
        // Yaw 90° (east), level pitch: FoV spans [30°, 150°] with margin —
        // entirely east; pitch spans both halves.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(90.0, 0.0));
        assert_eq!(tiles, vec![TileId::new(1), TileId::new(3)]);
    }

    #[test]
    fn looking_up_drops_bottom_tiles() {
        // Pitch 60°: FoV pitch span [0°, 120°] — clipped to top tiles.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(90.0, 60.0));
        assert_eq!(tiles, vec![TileId::new(1)]);
    }

    #[test]
    fn wrap_seam_includes_both_hemispheres() {
        // Yaw 180° gaze: the FoV wraps across the ±180° seam.
        let tiles = tiles_for_pose(&FovSpec::paper_default(), &pose(180.0, 0.0));
        assert_eq!(tiles.len(), 4);
    }

    #[test]
    fn wider_margin_never_shrinks_the_tile_set() {
        for yaw in [-150.0, -90.0, 0.0, 45.0, 120.0] {
            for pitch in [-45.0, 0.0, 45.0] {
                let tight = tiles_for_pose(
                    &FovSpec::paper_default().with_margin(0.0),
                    &pose(yaw, pitch),
                );
                let wide = tiles_for_pose(
                    &FovSpec::paper_default().with_margin(40.0),
                    &pose(yaw, pitch),
                );
                for t in &tight {
                    assert!(wide.contains(t), "margin lost tile {t} at {yaw}/{pitch}");
                }
            }
        }
    }

    #[test]
    fn huge_margin_delivers_everything() {
        let spec = FovSpec::paper_default().with_margin(180.0);
        let tiles = tiles_for_pose(&spec, &pose(17.0, -3.0));
        assert_eq!(tiles.len(), 4);
    }

    #[test]
    fn tile_set_is_never_empty() {
        for yaw in (-180..180).step_by(15) {
            for pitch in (-85..=85).step_by(17) {
                let tiles =
                    tiles_for_pose(&FovSpec::paper_default(), &pose(yaw as f64, pitch as f64));
                assert!(!tiles.is_empty(), "empty tile set at {yaw}/{pitch}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_tile_id_panics() {
        let _ = TileId::new(4);
    }

    #[test]
    fn display_and_accessors() {
        assert_eq!(TileId::new(2).to_string(), "tile2");
        assert_eq!(TileId::new(3).get(), 3);
    }
}
