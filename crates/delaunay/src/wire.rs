//! Compact binary serialization of meshes and point sets.
//!
//! These byte buffers are exactly what the out-of-core runtime charges to
//! its disk and network models, so the format is explicit: little-endian,
//! length-prefixed, no padding. Serialization *compacts* the mesh — dead
//! arena slots and unreferenced vertices (e.g. super-box corners) are
//! dropped and ids are remapped order-preservingly, so a serialize →
//! deserialize round trip is also a defragmentation.

use crate::mesh::{TriMesh, VFlags, NO_TRI, NO_VERT};
use pumg_geometry::Point2;

const MESH_MAGIC: u32 = 0x4d455348; // "MESH"
const PTS_MAGIC: u32 = 0x50545332; // "PTS2"

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

// ----- primitive little-endian helpers --------------------------------

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos + 4;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("a 4-byte slice")))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos + 8;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("an 8-byte slice")))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ----- point sets -------------------------------------------------------

/// Serialize a bare point set (plus flags) — the unit of data exchange for
/// the data-distribution methods (UPDR/NUPDR leaves ship point sets).
pub fn encode_points(pts: &[Point2], flags: &[VFlags]) -> Vec<u8> {
    debug_assert_eq!(pts.len(), flags.len());
    let mut buf = Vec::with_capacity(8 + pts.len() * 17);
    put_u32(&mut buf, PTS_MAGIC);
    put_u32(&mut buf, pts.len() as u32);
    for (p, f) in pts.iter().zip(flags) {
        put_f64(&mut buf, p.x);
        put_f64(&mut buf, p.y);
        buf.push(f.0);
    }
    buf
}

/// Inverse of [`encode_points`].
pub fn decode_points(buf: &[u8]) -> Result<(Vec<Point2>, Vec<VFlags>), WireError> {
    let mut r = Reader::new(buf);
    if r.u32()? != PTS_MAGIC {
        return Err(WireError::BadMagic);
    }
    let n = r.u32()? as usize;
    let mut pts = Vec::with_capacity(n);
    let mut flags = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.f64()?;
        let y = r.f64()?;
        pts.push(Point2::new(x, y));
        flags.push(VFlags(r.u8()?));
    }
    Ok((pts, flags))
}

// ----- whole meshes -----------------------------------------------------

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
        // live triangles in arena order; a vertex record is written the
        // moment its vertex is first met, so one pass over the triangles
        // produces the whole vertex section. Its count is patched in after.
        let mut vmap = vec![NO_VERT; self.num_vertices()];
        let mut tmap = vec![NO_TRI; self.arena_len()];
        let nt = self.num_tris();
        buf.reserve(12 + self.num_vertices() * 17 + nt * 25);
        put_u32(buf, MESH_MAGIC);
        let nv_at = buf.len();
        put_u32(buf, 0);
        put_u32(buf, nt as u32);
        let mut nv = 0u32;
        for (i, t) in self.tri_ids().enumerate() {
            tmap[t as usize] = i as u32;
            for &v in &self.tri(t).v {
                if vmap[v as usize] == NO_VERT {
                    vmap[v as usize] = nv;
                    nv += 1;
                    let p = self.point(v);
                    put_f64(buf, p.x);
                    put_f64(buf, p.y);
                    buf.push(self.vflags(v).0);
                }
            }
        }
        buf[nv_at..nv_at + 4].copy_from_slice(&nv.to_le_bytes());
        for t in self.tri_ids() {
            let tri = self.tri(t);
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

    /// Inverse of [`TriMesh::encode`].
    pub fn decode(buf: &[u8]) -> Result<TriMesh, WireError> {
        let mut r = Reader::new(buf);
        if r.u32()? != MESH_MAGIC {
            return Err(WireError::BadMagic);
        }
        let nv = r.u32()? as usize;
        let nt = r.u32()? as usize;
        let mut mesh = TriMesh::new();
        // Size the arenas once — but never beyond what the remaining bytes
        // can hold, so a hostile header cannot force an allocation.
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

    #[test]
    fn points_roundtrip() {
        let pts = vec![Point2::new(1.5, -2.25), Point2::new(0.0, 1e-300)];
        let flags = vec![VFlags(VFlags::INPUT), VFlags(VFlags::STEINER)];
        let buf = encode_points(&pts, &flags);
        let (p2, f2) = decode_points(&buf).unwrap();
        assert_eq!(pts, p2);
        assert_eq!(flags, f2);
    }

    #[test]
    fn points_bad_magic() {
        let buf = vec![0u8; 16];
        assert_eq!(decode_points(&buf).unwrap_err(), WireError::BadMagic);
    }

    #[test]
    fn points_truncated() {
        let pts = vec![Point2::new(1.0, 2.0)];
        let flags = vec![VFlags::default()];
        let buf = encode_points(&pts, &flags);
        assert_eq!(
            decode_points(&buf[..buf.len() - 3]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn mesh_roundtrip_preserves_structure() {
        let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 2.0, 1.0).build().unwrap();
        refine(&mut mesh, &RefineParams::with_uniform_size(0.3));
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
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        assert_eq!(TriMesh::decode(&buf).unwrap_err(), WireError::BadMagic);
    }

    #[test]
    fn mesh_decode_rejects_bad_indices() {
        let mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0).build().unwrap();
        let mut buf = mesh.encode();
        // Corrupt a vertex index in the first triangle record: the triangle
        // section begins after the header (12) and vertex records (17 each).
        let nv = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        let tri_off = 12 + nv * 17;
        buf[tri_off..tri_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            TriMesh::decode(&buf).unwrap_err(),
            WireError::Corrupt(_)
        ));
    }
}
