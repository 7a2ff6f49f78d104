//! Compact binary serialization of meshes.
//!
//! These byte buffers are exactly what the out-of-core runtime charges to
//! its disk and network models, so the format is explicit: little-endian,
//! length-prefixed, no padding. Serialization *compacts* the mesh — dead
//! arena slots and unreferenced vertices (e.g. super-box corners) are
//! dropped and ids are remapped order-preservingly, so a serialize →
//! deserialize round trip is also a defragmentation.
//!
//! Layout: a 12-byte header (magic, vertex count `nv`, triangle count
//! `nt`), then `nv` 17-byte vertex records (`x`, `y`, flags) and `nt`
//! 25-byte triangle records (three vertex indices, three neighbour indices,
//! the constrained-edge bits). Both directions size their output once and
//! work on these fixed-size records in bulk: the spill path packs and
//! unpacks every evicted mesh, so the codec's CPU per byte is what a swap
//! costs when the spill file sits in memory.

use crate::mesh::{TId, Tri, TriMesh, VFlags, NO_TRI, NO_VERT};
use pumg_geometry::Point2;

const MESH_MAGIC: u32 = 0x4d455348; // "MESH"
const HEADER: usize = 12;
const VERTEX_RECORD: usize = 17;
const TRI_RECORD: usize = 25;

/// Serialization/deserialization failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short or corrupt.
    Truncated,
    /// Magic number mismatch (wrong payload type).
    BadMagic,
    /// Structural inconsistency in the payload.
    Corrupt(&'static str),
}

/// The little-endian `u32` at byte `at` of `rec`.
#[inline]
fn u32_at(rec: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(rec[at..at + 4].try_into().expect("a 4-byte field"))
}

/// The little-endian `f64` at byte `at` of `rec`.
#[inline]
fn f64_at(rec: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(rec[at..at + 8].try_into().expect("an 8-byte field"))
}

/// Bytes of an encoding with `nv` vertices and `nt` triangles, or `None`
/// if that overflows `usize`.
fn encoded_len(nv: usize, nt: usize) -> Option<usize> {
    nv.checked_mul(VERTEX_RECORD)?
        .checked_add(nt.checked_mul(TRI_RECORD)?)?
        .checked_add(HEADER)
}

/// Write one record per triangle of `tris` into `trecs`, neighbour ids
/// mapped by `nbr_id`. Each vertex is numbered, and its record written into
/// `vrecs`, the moment it is first met. Returns the number of vertices.
fn write_records<'m>(
    mesh: &'m TriMesh,
    tris: impl Iterator<Item = &'m Tri>,
    nbr_id: impl Fn(TId) -> u32,
    vrecs: &mut [[u8; VERTEX_RECORD]],
    trecs: &mut [[u8; TRI_RECORD]],
) -> u32 {
    let mut vmap = vec![NO_VERT; mesh.num_vertices()];
    let mut nv = 0u32;
    for (rec, tri) in trecs.iter_mut().zip(tris) {
        for (i, &v) in tri.v.iter().enumerate() {
            let id = &mut vmap[v as usize];
            if *id == NO_VERT {
                *id = nv;
                let vrec = &mut vrecs[nv as usize];
                let p = mesh.pts[v as usize];
                vrec[0..8].copy_from_slice(&p.x.to_le_bytes());
                vrec[8..16].copy_from_slice(&p.y.to_le_bytes());
                vrec[16] = mesh.vflags[v as usize].0;
                nv += 1;
            }
            rec[4 * i..4 * i + 4].copy_from_slice(&id.to_le_bytes());
        }
        for (i, &n) in tri.nbr.iter().enumerate() {
            rec[12 + 4 * i..16 + 4 * i].copy_from_slice(&nbr_id(n).to_le_bytes());
        }
        rec[24] = tri.constrained;
    }
    nv
}

impl TriMesh {
    /// Serialize the live part of the mesh (compacting ids).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// [`TriMesh::encode`] appended to a caller-owned buffer, so an object
    /// that embeds a mesh serializes it in place instead of copying it in.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        // Referenced vertices are renumbered in order of first reference and
        // live triangles in arena order. The output is sized once, with room
        // for every vertex; one pass over the live triangles then numbers
        // each vertex, writing its record the moment it is first met, and
        // writes each triangle record. Unreferenced vertices (super-box
        // corners) leave a gap before the triangle section, closed at the
        // end.
        let (all_nv, nt) = (self.num_vertices(), self.num_tris());
        let start = buf.len();
        buf.resize(start + HEADER + all_nv * VERTEX_RECORD + nt * TRI_RECORD, 0);
        let (header, body) = buf[start..].split_at_mut(HEADER);
        let (vsec, tsec) = body.split_at_mut(all_nv * VERTEX_RECORD);
        let (vrecs, trecs) = (vsec.as_chunks_mut().0, tsec.as_chunks_mut().0);
        let nv = if nt == self.arena_len() {
            // No dead slots: arena ids already are wire ids.
            write_records(self, self.tris.iter(), |n| n, vrecs, trecs)
        } else {
            let mut tmap = vec![NO_TRI; self.arena_len()];
            for (new, old) in self.tri_ids().enumerate() {
                tmap[old as usize] = new as u32;
            }
            let live = self.tris.iter().filter(|t| !t.is_dead());
            let nbr_id = |n: TId| if n == NO_TRI { n } else { tmap[n as usize] };
            write_records(self, live, nbr_id, vrecs, trecs)
        };
        header[0..4].copy_from_slice(&MESH_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&nv.to_le_bytes());
        header[8..12].copy_from_slice(&(nt as u32).to_le_bytes());
        let nv = nv as usize;
        if nv < all_nv {
            let tri_at = start + HEADER + all_nv * VERTEX_RECORD;
            buf.copy_within(tri_at.., start + HEADER + nv * VERTEX_RECORD);
            buf.truncate(start + HEADER + nv * VERTEX_RECORD + nt * TRI_RECORD);
        }
    }

    /// Inverse of [`TriMesh::encode`]. The arenas come out exactly sized
    /// (capacity equals length). The header's counts are checked against
    /// the bytes present before anything is allocated, so a hostile header
    /// cannot force an allocation.
    pub fn decode(buf: &[u8]) -> Result<TriMesh, WireError> {
        let word = |i: usize| {
            buf.get(4 * i..4 * i + 4)
                .map(|w| u32_at(w, 0))
                .ok_or(WireError::Truncated)
        };
        if word(0)? != MESH_MAGIC {
            return Err(WireError::BadMagic);
        }
        let (nv, nt) = (word(1)?, word(2)?);
        let end = encoded_len(nv as usize, nt as usize).ok_or(WireError::Truncated)?;
        let body = buf.get(HEADER..end).ok_or(WireError::Truncated)?;
        let (vsec, tsec) = body.split_at(nv as usize * VERTEX_RECORD);
        let (vrecs, _) = vsec.as_chunks::<VERTEX_RECORD>();
        let (trecs, _) = tsec.as_chunks::<TRI_RECORD>();
        let pts: Vec<Point2> = vrecs
            .iter()
            .map(|r| Point2::new(f64_at(r, 0), f64_at(r, 8)))
            .collect();
        let vflags: Vec<VFlags> = vrecs.iter().map(|r| VFlags(r[16])).collect();
        let tris: Vec<Tri> = trecs
            .iter()
            .map(|r| Tri {
                v: [u32_at(r, 0), u32_at(r, 4), u32_at(r, 8)],
                nbr: [u32_at(r, 12), u32_at(r, 16), u32_at(r, 20)],
                constrained: r[24],
            })
            .collect();
        // Index checks as one reduction over the decoded arena: count the
        // vertex indices not `< nv` and the neighbour indices neither
        // `NO_TRI` nor `< nt` (`NO_TRI + 1` wraps to 0, so: `n + 1 > nt`).
        let (bad_v, bad_n) = tris.iter().fold((0, 0), |(bad_v, bad_n), t| {
            (
                bad_v + t.v.iter().filter(|&&v| v >= nv).count(),
                bad_n + t.nbr.iter().filter(|&&n| n.wrapping_add(1) > nt).count(),
            )
        });
        if bad_v > 0 {
            return Err(WireError::Corrupt("vertex index out of range"));
        }
        if bad_n > 0 {
            return Err(WireError::Corrupt("triangle index out of range"));
        }
        Ok(TriMesh {
            pts,
            vflags,
            tris,
            n_alive: nt as usize,
            hint: if nt > 0 { 0 } else { NO_TRI },
            ..TriMesh::default()
        })
    }

    /// Approximate in-memory footprint in bytes (what the out-of-core
    /// layer's memory accounting charges for this mesh).
    pub fn mem_footprint(&self) -> usize {
        self.num_vertices() * (16 + 1) + self.arena_len() * std::mem::size_of::<crate::mesh::Tri>()
    }

    /// [`TriMesh::mem_footprint`] counted over the arenas' capacities
    /// rather than their lengths: the bytes they hold allocated, reserved
    /// slots included.
    pub fn mem_capacity(&self) -> usize {
        self.pts.capacity() * 16
            + self.vflags.capacity()
            + self.tris.capacity() * std::mem::size_of::<crate::mesh::Tri>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MeshBuilder;
    use crate::refine::{refine, RefineParams};

    // ----- reference: the row-at-a-time codec, kept verbatim --------------
    //
    // The bulk codec above must write exactly the bytes, and decode exactly
    // the meshes, that this one does: the out-of-core runtime charges those
    // bytes, and the exact counters and digests downstream depend on them.

    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        fn u8(&mut self) -> Result<u8, WireError> {
            let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
            self.pos += 1;
            Ok(b)
        }

        fn u32(&mut self) -> Result<u32, WireError> {
            let end = self.pos + 4;
            let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
            self.pos = end;
            Ok(u32::from_le_bytes(s.try_into().expect("a 4-byte slice")))
        }

        fn u64(&mut self) -> Result<u64, WireError> {
            let end = self.pos + 8;
            let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
            self.pos = end;
            Ok(u64::from_le_bytes(s.try_into().expect("an 8-byte slice")))
        }

        fn f64(&mut self) -> Result<f64, WireError> {
            Ok(f64::from_bits(self.u64()?))
        }

        fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }
    }

    fn reference_encode_into(mesh: &TriMesh, buf: &mut Vec<u8>) {
        let mut vmap = vec![NO_VERT; mesh.num_vertices()];
        let mut tmap = vec![NO_TRI; mesh.arena_len()];
        let nt = mesh.num_tris();
        buf.reserve(12 + mesh.num_vertices() * 17 + nt * 25);
        put_u32(buf, MESH_MAGIC);
        let nv_at = buf.len();
        put_u32(buf, 0);
        put_u32(buf, nt as u32);
        let mut nv = 0u32;
        for (i, t) in mesh.tri_ids().enumerate() {
            tmap[t as usize] = i as u32;
            for &v in &mesh.tri(t).v {
                if vmap[v as usize] == NO_VERT {
                    vmap[v as usize] = nv;
                    nv += 1;
                    let p = mesh.point(v);
                    put_f64(buf, p.x);
                    put_f64(buf, p.y);
                    buf.push(mesh.vflags(v).0);
                }
            }
        }
        buf[nv_at..nv_at + 4].copy_from_slice(&nv.to_le_bytes());
        for t in mesh.tri_ids() {
            let tri = mesh.tri(t);
            for &v in &tri.v {
                put_u32(buf, vmap[v as usize]);
            }
            for &n in &tri.nbr {
                put_u32(
                    buf,
                    if n == NO_TRI {
                        NO_TRI
                    } else {
                        tmap[n as usize]
                    },
                );
            }
            buf.push(tri.constrained);
        }
    }

    fn reference_encode(mesh: &TriMesh) -> Vec<u8> {
        let mut buf = Vec::new();
        reference_encode_into(mesh, &mut buf);
        buf
    }

    fn reference_decode(buf: &[u8]) -> Result<TriMesh, WireError> {
        let mut r = Reader::new(buf);
        if r.u32()? != MESH_MAGIC {
            return Err(WireError::BadMagic);
        }
        let nv = r.u32()? as usize;
        let nt = r.u32()? as usize;
        let mut mesh = TriMesh::new();
        mesh.reserve(nv.min(r.remaining() / 17), nt.min(r.remaining() / 25));
        for _ in 0..nv {
            let x = r.f64()?;
            let y = r.f64()?;
            let f = VFlags(r.u8()?);
            mesh.add_vertex(Point2::new(x, y), f);
        }
        for _ in 0..nt {
            let mut v = [0u32; 3];
            for x in &mut v {
                *x = r.u32()?;
                if *x as usize >= nv {
                    return Err(WireError::Corrupt("vertex index out of range"));
                }
            }
            let t = mesh.add_tri(v);
            let mut nbr = [NO_TRI; 3];
            for x in &mut nbr {
                *x = r.u32()?;
                if *x != NO_TRI && *x as usize >= nt {
                    return Err(WireError::Corrupt("triangle index out of range"));
                }
            }
            let constrained = r.u8()?;
            let tri = mesh.tri_mut(t);
            tri.nbr = nbr;
            tri.constrained = constrained;
        }
        mesh.hint = if nt > 0 { 0 } else { NO_TRI };
        Ok(mesh)
    }

    // ----- fixtures ---------------------------------------------------------

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn refined_rectangle() -> TriMesh {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 2.0, 1.0).build().unwrap();
        refine(&mut mesh, &RefineParams::with_uniform_size(0.3));
        mesh
    }

    /// A lone triangle with one unreferenced vertex before its corners.
    fn one_triangle() -> TriMesh {
        let mut mesh = TriMesh::new();
        mesh.add_vertex(Point2::new(9.0, 9.0), VFlags(VFlags::SUPER));
        for (x, y) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)] {
            mesh.add_vertex(Point2::new(x, y), VFlags(VFlags::INPUT));
        }
        let t = mesh.add_tri([1, 2, 3]);
        mesh.tri_mut(t).constrained = 0b101;
        mesh
    }

    /// Meshes covering every path of the encoder: unreferenced super-box
    /// vertices, constrained edges, dead arena slots (some still named as
    /// neighbours by live triangles), a hole, one triangle, none at all.
    fn corpus() -> Vec<(&'static str, TriMesh)> {
        let built = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
        let mut pipe = MeshBuilder::pipe_cross_section(Point2::new(0.0, 0.0), 2.0, 0.5, 16)
            .build()
            .unwrap();
        refine(&mut pipe, &RefineParams::with_uniform_size(0.4));
        let refined = refined_rectangle();
        let compacted = TriMesh::decode(&refined.encode()).unwrap();
        let mut with_dead = compacted.clone();
        for t in [0, 5, 6, with_dead.arena_len() as u32 - 1] {
            with_dead.remove_tri(t);
        }
        let mut vertices_only = TriMesh::new();
        vertices_only.add_vertex(Point2::new(0.5, 0.5), VFlags::default());
        let mut all_dead = one_triangle();
        all_dead.remove_tri(0);
        vec![
            ("built", built),
            ("pipe", pipe),
            ("refined", refined),
            ("compacted", compacted),
            ("dead slots named as neighbours", with_dead),
            ("one triangle", one_triangle()),
            ("empty", TriMesh::new()),
            ("vertices only", vertices_only),
            ("every slot dead", all_dead),
        ]
    }

    fn assert_same_mesh(name: &str, got: &TriMesh, want: &TriMesh) {
        assert_eq!(got.pts, want.pts, "{name}: pts");
        assert_eq!(got.vflags, want.vflags, "{name}: vflags");
        assert_eq!(got.tris, want.tris, "{name}: tris");
        assert_eq!(got.free, want.free, "{name}: free list");
        assert_eq!(got.n_alive, want.n_alive, "{name}: n_alive");
        assert_eq!(got.hint, want.hint, "{name}: hint");
        let caps = |m: &TriMesh| (m.pts.capacity(), m.vflags.capacity(), m.tris.capacity());
        assert_eq!(caps(got), caps(want), "{name}: arena capacities");
        assert_eq!(caps(got), (got.pts.len(), got.vflags.len(), got.tris.len()));
    }

    // ----- byte identity ------------------------------------------------------

    #[test]
    fn corpus_covers_every_encoder_path() {
        let meshes = corpus();
        let any = |f: &dyn Fn(&TriMesh) -> bool| meshes.iter().any(|(_, m)| f(m));
        assert!(any(&|m| m.arena_len() > m.num_tris() && m.num_tris() > 0));
        assert!(any(&|m| m.arena_len() == m.num_tris() && m.num_tris() > 1));
        let all_referenced = |m: &TriMesh| {
            m.encode().len()
                == HEADER + VERTEX_RECORD * m.num_vertices() + TRI_RECORD * m.num_tris()
        };
        assert!(any(&|m| !all_referenced(m) && m.num_tris() > 1));
        assert!(any(&|m| all_referenced(m) && m.num_tris() > 1));
        assert!(any(&|m| m.tri_ids().any(|t| m.tri(t).constrained != 0)));
        assert!(any(&|m| m.num_tris() == 1));
        assert!(any(&|m| m.num_tris() == 0 && m.arena_len() > 0));
        assert!(any(&|m| m.num_tris() == 0 && m.num_vertices() == 0));
    }

    #[test]
    fn encode_matches_the_row_at_a_time_reference() {
        for (name, mesh) in corpus() {
            let want = reference_encode(&mesh);
            assert_eq!(mesh.encode(), want, "{name}");
            // Appending keeps what the buffer already holds.
            let mut buf = b"prefix".to_vec();
            mesh.encode_into(&mut buf);
            assert_eq!(&buf[..6], b"prefix", "{name}");
            assert_eq!(&buf[6..], &want[..], "{name}");
        }
    }

    #[test]
    fn decode_matches_the_row_at_a_time_reference() {
        for (name, mesh) in corpus() {
            let buf = reference_encode(&mesh);
            let got = TriMesh::decode(&buf).unwrap();
            assert_same_mesh(name, &got, &reference_decode(&buf).unwrap());
            // Trailing bytes are ignored, as before.
            let mut longer = buf.clone();
            longer.extend_from_slice(&[7; 30]);
            assert_same_mesh(name, &TriMesh::decode(&longer).unwrap(), &got);
        }
    }

    /// The format itself: any change to these bytes moves every spill and
    /// message charge downstream, and must fail here first.
    #[test]
    fn encoding_of_a_fixed_mesh_is_pinned() {
        let mesh = refined_rectangle();
        let buf = mesh.encode();
        assert_eq!(buf, reference_encode(&mesh));
        assert_eq!((buf.len(), fnv1a(&buf)), (1128, 5549526807201211612));
    }

    // ----- hostile input --------------------------------------------------------

    #[test]
    fn every_truncated_prefix_is_truncated() {
        for mesh in [one_triangle(), refined_rectangle()] {
            let buf = mesh.encode();
            for len in 0..buf.len() {
                assert_eq!(
                    TriMesh::decode(&buf[..len]).unwrap_err(),
                    WireError::Truncated,
                    "prefix of {len} of {} bytes",
                    buf.len()
                );
            }
        }
    }

    // ----- round trips ----------------------------------------------------------

    #[test]
    fn mesh_roundtrip_preserves_structure() {
        let mesh = refined_rectangle();
        let buf = mesh.encode();
        let back = TriMesh::decode(&buf).unwrap();
        back.validate().unwrap();
        back.validate_delaunay().unwrap();
        assert_eq!(back.num_tris(), mesh.num_tris());
        assert!((back.total_area() - mesh.total_area()).abs() < 1e-12);
        // Round trip is stable: encoding the compacted mesh is identical.
        assert_eq!(back.encode(), back.encode());
    }

    #[test]
    fn mesh_encode_drops_dead_and_super() {
        let mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
        // The builder leaves super vertices in the vertex array...
        assert!(mesh.num_vertices() > 4);
        let back = TriMesh::decode(&mesh.encode()).unwrap();
        // ...but serialization drops them (4 corners only).
        assert_eq!(back.num_vertices(), 4);
        assert_eq!(back.num_tris(), mesh.num_tris());
    }

    #[test]
    fn mesh_decode_rejects_garbage() {
        assert_eq!(
            TriMesh::decode(&[1, 2, 3]).unwrap_err(),
            WireError::Truncated
        );
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xdeadbeef);
        assert_eq!(TriMesh::decode(&buf).unwrap_err(), WireError::BadMagic);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        assert_eq!(TriMesh::decode(&buf).unwrap_err(), WireError::BadMagic);
        // A header claiming more records than the buffer holds.
        for (nv, nt) in [(0, u32::MAX), (u32::MAX, 0), (u32::MAX, u32::MAX), (1, 1)] {
            let mut buf = Vec::new();
            put_u32(&mut buf, MESH_MAGIC);
            put_u32(&mut buf, nv);
            put_u32(&mut buf, nt);
            assert_eq!(TriMesh::decode(&buf).unwrap_err(), WireError::Truncated);
        }
    }

    #[test]
    fn mesh_decode_rejects_bad_indices() {
        // An out-of-range vertex or neighbour index in the first, a middle
        // or the last triangle record, in each of its six index fields.
        let buf = refined_rectangle().encode();
        let nv = u32_at(&buf, 4);
        let nt = u32_at(&buf, 8);
        let tri_off = HEADER + nv as usize * VERTEX_RECORD;
        let vertex = WireError::Corrupt("vertex index out of range");
        let nbr = WireError::Corrupt("triangle index out of range");
        for t in [0, nt / 2, nt - 1] {
            for field in 0..6 {
                let (bad, want) = if field < 3 {
                    ([nv, NO_VERT], &vertex)
                } else {
                    ([nt, NO_TRI - 1], &nbr)
                };
                for value in bad {
                    let mut corrupt = buf.clone();
                    let at = tri_off + t as usize * TRI_RECORD + 4 * field;
                    corrupt[at..at + 4].copy_from_slice(&value.to_le_bytes());
                    assert_eq!(TriMesh::decode(&corrupt).unwrap_err(), *want);
                    assert_eq!(reference_decode(&corrupt).unwrap_err(), *want);
                }
            }
        }
        // The largest valid indices, and a boundary edge, still decode.
        let mut edge = buf.clone();
        let last = tri_off + (nt as usize - 1) * TRI_RECORD;
        edge[last..last + 4].copy_from_slice(&(nv - 1).to_le_bytes());
        edge[last + 12..last + 16].copy_from_slice(&(nt - 1).to_le_bytes());
        edge[last + 16..last + 20].copy_from_slice(&NO_TRI.to_le_bytes());
        assert_same_mesh(
            "extreme indices",
            &TriMesh::decode(&edge).unwrap(),
            &reference_decode(&edge).unwrap(),
        );
    }
}
