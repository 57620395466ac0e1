//! Compact (fully matrix-free) EBE operator — the kernel the paper actually
//! runs on the GPU.
//!
//! Table 2 shows the EBE kernel moving only ~0.2–0.6 TB/s while sustaining
//! 9.5–18 TFLOPS: the element matrices are *not* streamed from memory but
//! recomputed on the fly from ~170 bytes of per-element geometry+material
//! data (the paper: EBE "prevents the storage of the matrix in memory and
//! the construction of the matrix at each time step"). Two structural
//! facts about straight-sided Tet10 elements make this cheap:
//!
//! * the consistent mass matrix is `ρV · M̂ ⊗ I₃` with a *universal*
//!   10×10 reference matrix `M̂ = Σ_qp w N Nᵀ`;
//! * physical shape gradients factor as `∇Nᵢ(qp) = Σ_a Ĝ[qp][i][a] ∇L_a`
//!   with universal tables `Ĝ` and per-element constant barycentric
//!   gradients `∇L_a`, so `K_e p` reduces to a 4-quadrature-point
//!   strain/stress loop (~3 kflop per element per RHS — matching the
//!   paper's measured ≈3.8 kflop/element).
//!
//! Stored per element: 4 barycentric gradients (96 B), volume + ρ, λ, μ
//! (32 B) + 40 B of node ids ≈ 168 B — versus 7.4 KB for cached packed
//! matrices, a ~44× traffic reduction that turns the kernel compute-bound.

use hetsolve_mesh::{Coloring, Material, TetMesh10};
use hetsolve_sparse::dirichlet::FixedMask;
use hetsolve_sparse::ebe::color_faces;
use hetsolve_sparse::op::{KernelCounts, LinearOperator, MultiOperator};
use hetsolve_sparse::parcheck::ColoredConnectivity;
use hetsolve_sparse::pool;
use hetsolve_sparse::sym::sym2_matvec_add_multi;
use rayon::prelude::*;
use std::iter::Enumerate;
use std::slice::ChunksMut;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::quad::{tet_rule_deg2, tet_rule_deg5};
use crate::shape::{tet10_shape, tet_bary_gradients};

/// f64 slots per element in the geometry table: 12 (∇L) + 1 (V) + 3 (ρ,λ,μ).
pub const GEO_STRIDE: usize = 16;

/// Universal reference tables shared by all elements (computed once).
#[derive(Debug, Clone)]
pub struct RefTables {
    /// `Σ_qp w N_i N_j` over the degree-5 rule, row-major 10×10.
    pub mhat: [f64; 100],
    /// Stiffness rule: per quadrature point, `dN_i/dL_a` (10×4) and weight.
    pub grad_table: Vec<([f64; 40], f64)>,
}

/// dN_i/dL_a at barycentric point `l` (Tet10), row-major 10×4.
fn dn_dl(l: [f64; 4]) -> [f64; 40] {
    use hetsolve_mesh::mesh::TET_EDGES;
    let mut g = [0.0; 40];
    for i in 0..4 {
        g[4 * i + i] = 4.0 * l[i] - 1.0;
    }
    for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
        g[4 * (4 + k) + a] = 4.0 * l[b];
        g[4 * (4 + k) + b] = 4.0 * l[a];
    }
    g
}

impl RefTables {
    pub fn build() -> Self {
        let mut mhat = [0.0; 100];
        for qp in tet_rule_deg5() {
            let n = tet10_shape(qp.l);
            for i in 0..10 {
                for j in 0..10 {
                    mhat[10 * i + j] += qp.w * n[i] * n[j];
                }
            }
        }
        let grad_table = tet_rule_deg2()
            .iter()
            .map(|qp| (dn_dl(qp.l), qp.w))
            .collect();
        RefTables { mhat, grad_table }
    }
}

/// Per-element compact data: geometry + material, plus cached boundary
/// dashpot face matrices (faces are few — surface-only — so caching them
/// adds negligible memory).
#[derive(Debug, Clone)]
pub struct CompactElements {
    pub geo: Vec<f64>,
    pub n_elems: usize,
    pub tables: RefTables,
}

impl CompactElements {
    pub fn compute(mesh: &TetMesh10, mats: &[Material]) -> Self {
        let ne = mesh.n_elems();
        let mut geo = vec![0.0; ne * GEO_STRIDE];
        geo.par_chunks_mut(GEO_STRIDE)
            .enumerate()
            .for_each(|(e, g)| {
                let verts = mesh.vertices(e);
                let (dl, vol) = tet_bary_gradients(&verts);
                assert!(vol > 0.0, "element {e} has non-positive volume");
                for a in 0..4 {
                    let v = dl[a].to_array();
                    g[3 * a] = v[0];
                    g[3 * a + 1] = v[1];
                    g[3 * a + 2] = v[2];
                }
                let m = &mats[mesh.material[e] as usize];
                g[12] = vol;
                g[13] = m.rho;
                g[14] = m.lambda();
                g[15] = m.mu();
            });
        CompactElements {
            geo,
            n_elems: ne,
            tables: RefTables::build(),
        }
    }

    /// Bytes of the compact representation (the EBE memory-usage story of
    /// Table 3: geometry + ids instead of matrices).
    pub fn bytes(&self) -> usize {
        self.geo.len() * 8
    }
}

/// Node → contribution-block incidence in CSR form: node `n` sums the
/// blocks `blocks[start[n]..start[n + 1]]` of the apply's result buffer,
/// in that order. A block is one entity-local node's `3R` values; block
/// `base + K·id + k` belongs to local node `k` of entity `id`.
#[derive(Debug)]
struct Incidence {
    start: Vec<u32>,
    blocks: Vec<u32>,
}

impl Incidence {
    /// The blocks of `conn`'s entities in the order `groups` lists them:
    /// color by color, which is the order a colored scatter would add
    /// them into each node.
    fn new<const K: usize>(
        n_nodes: usize,
        conn: &[[u32; K]],
        groups: &[Vec<u32>],
        base: usize,
    ) -> Self {
        let entities = || {
            groups
                .iter()
                .flatten()
                .map(|&id| (id as usize, &conn[id as usize]))
        };
        let mut start = vec![0u32; n_nodes + 1];
        for (_, nodes) in entities() {
            for &n in nodes {
                start[n as usize + 1] += 1;
            }
        }
        for n in 0..n_nodes {
            start[n + 1] += start[n];
        }
        let mut next = start.clone();
        let mut blocks = vec![0u32; start[n_nodes] as usize];
        for (id, nodes) in entities() {
            for (k, &n) in nodes.iter().enumerate() {
                let b = u32::try_from(base + K * id + k).expect("block index fits u32");
                blocks[next[n as usize] as usize] = b;
                next[n as usize] += 1;
            }
        }
        Incidence { start, blocks }
    }

    fn of(&self, node: usize) -> &[u32] {
        &self.blocks[self.start[node] as usize..self.start[node + 1] as usize]
    }
}

/// The validated apply plan of a Tet10 mesh and its Tri6 dashpot faces:
/// the element connectivity with its coloring and the face connectivity
/// with its coloring, each checked by `validate_groups`, and the
/// node → contribution incidence the apply gathers through. Build it once
/// per mesh; every [`CompactEbe`] borrows it, so building an operator does
/// no coloring work and cannot skip the check.
#[derive(Debug)]
pub struct EbePlan {
    elems: ColoredConnectivity<10>,
    faces: ColoredConnectivity<6>,
    /// Element blocks `10·e + k`, color by color.
    elem_inc: Incidence,
    /// Face blocks `10·n_elems + 6·f + k`, color by color.
    face_inc: Incidence,
    /// Result buffers of finished applies, reused by the next ones (one
    /// per apply running at the same time).
    spare: Mutex<Vec<Vec<f64>>>,
}

impl EbePlan {
    /// Validate `coloring` over `elems`, color the dashpot `faces` and
    /// validate that coloring too, then build the incidence. Panics with
    /// the offending pair when two same-color entities share a node (their
    /// contributions would no longer be ordered by color).
    pub fn new(
        n_nodes: usize,
        elems: &[[u32; 10]],
        coloring: &Coloring,
        faces: &[[u32; 6]],
    ) -> Self {
        assert_eq!(coloring.color.len(), elems.len());
        let elems = ColoredConnectivity::validate(n_nodes, elems, coloring.groups.clone())
            .unwrap_or_else(|c| panic!("EbePlan::new: element {c}"));
        let faces = ColoredConnectivity::validate(n_nodes, faces, color_faces(n_nodes, faces))
            .unwrap_or_else(|c| panic!("EbePlan::new: face {c}"));
        let elem_inc = Incidence::new(n_nodes, elems.conn(), elems.groups(), 0);
        let face_base = 10 * elems.conn().len();
        let face_inc = Incidence::new(n_nodes, faces.conn(), faces.groups(), face_base);
        EbePlan {
            elems,
            faces,
            elem_inc,
            face_inc,
            spare: Mutex::new(Vec::new()),
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.elems.n_nodes()
    }

    /// Element → node ids.
    pub fn elems(&self) -> &[[u32; 10]] {
        self.elems.conn()
    }

    /// Dashpot face → node ids.
    pub fn faces(&self) -> &[[u32; 6]] {
        self.faces.conn()
    }

    /// A result buffer of at least `len` values (contents unspecified).
    fn take_buffer(&self, len: usize) -> Vec<f64> {
        let mut buf = lock(&self.spare).pop().unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        buf
    }

    fn put_buffer(&self, buf: Vec<f64>) {
        lock(&self.spare).push(buf);
    }
}

/// The lock of `m`; every mutex of this module guards plain data that a
/// panic cannot leave half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A phase of the apply as a queue of `(index, chunk)` work items that
/// the pool's threads claim one at a time.
type Queue<'s> = Mutex<Enumerate<ChunksMut<'s, f64>>>;

/// Next work item of `queue`.
fn claim<'s>(queue: &Queue<'s>) -> Option<(usize, &'s mut [f64])> {
    lock(queue).next()
}

/// Elements × fused cases below which the apply runs on the calling
/// thread. Measured on a 2-vCPU x86-64 host with the helper parked
/// between applies: two threads gain ×1.1 at 144–576, ×1.3 at 960 and
/// ×1.7 from 1,536 up; below this grain the wake-up and the helper's spin
/// buy too little.
const PAR_GRAIN: usize = 1024;
/// Elements, faces and nodes per work item.
const ELEM_CHUNK: usize = 32;
const FACE_CHUNK: usize = 64;
const NODE_CHUNK: usize = 128;

/// The compact matrix-free operator `c_m M + c_k K + c_b C_b` over a Tet10
/// mesh with optional boundary dashpots and Dirichlet mask.
pub struct CompactEbe<'a> {
    /// Validated connectivity and colorings of elements and faces.
    pub plan: &'a EbePlan,
    pub data: &'a CompactElements,
    /// Flat packed face dashpot matrices (stride 171).
    pub cb: &'a [f64],
    pub c_m: f64,
    pub c_k: f64,
    pub c_b: f64,
    pub fixed: &'a [bool],
    pub parallel: bool,
    /// Fused right-hand sides (1, 2, 4, or 8).
    pub r: usize,
    /// Write `y[fixed] = x[fixed]` after the apply (the Dirichlet identity
    /// block). Partitioned (multi-node) operators disable this so the
    /// identity is not double-counted when shared-node sums are taken; the
    /// driver re-applies it once after the halo exchange.
    pub identity_on_fixed: bool,
}

/// Element geometry record: barycentric gradients, volume, ρ, λ, μ.
#[inline(always)]
fn geometry(geo: &[f64], e: usize) -> ([[f64; 3]; 4], f64, f64, f64, f64) {
    let g = &geo[e * GEO_STRIDE..(e + 1) * GEO_STRIDE];
    let dl = [
        [g[0], g[1], g[2]],
        [g[3], g[4], g[5]],
        [g[6], g[7], g[8]],
        [g[9], g[10], g[11]],
    ];
    (dl, g[12], g[13], g[14], g[15])
}

/// Physical shape gradients at one quadrature point:
/// `g_i = Σ_a gt[i][a] ∇L_a`, skipping the zero table entries.
#[inline(always)]
fn phys_gradients(gt: &[f64; 40], dl: &[[f64; 3]; 4]) -> [[f64; 3]; 10] {
    let mut gr = [[0.0f64; 3]; 10];
    for i in 0..10 {
        for a in 0..4 {
            let c = gt[4 * i + a];
            if c != 0.0 {
                gr[i][0] += c * dl[a][0];
                gr[i][1] += c * dl[a][1];
                gr[i][2] += c * dl[a][2];
            }
        }
    }
    gr
}

impl<'a> CompactEbe<'a> {
    /// Fused right-hand-side counts the operator implements.
    pub fn supports_width(r: usize) -> bool {
        matches!(r, 1 | 2 | 4 | 8)
    }

    pub fn new(
        plan: &'a EbePlan,
        data: &'a CompactElements,
        cb: &'a [f64],
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        parallel: bool,
        r: usize,
    ) -> Self {
        assert!(
            Self::supports_width(r),
            "fused RHS count must be 1, 2, 4 or 8 (got {r})"
        );
        assert_eq!(plan.elems().len(), data.n_elems);
        CompactEbe {
            plan,
            data,
            cb,
            c_m: coeffs.0,
            c_k: coeffs.1,
            c_b: coeffs.2,
            fixed,
            parallel,
            r,
            identity_on_fixed: true,
        }
    }

    /// Disable the Dirichlet identity rows (see `identity_on_fixed`).
    pub fn without_fixed_identity(mut self) -> Self {
        self.identity_on_fixed = false;
        self
    }

    pub fn n_nodes(&self) -> usize {
        self.plan.n_nodes()
    }

    #[inline]
    fn masked(&self, dof: usize, v: f64) -> f64 {
        FixedMask::new(self.fixed).masked(dof, v)
    }

    /// Compute `y_local += (c_m M_e + c_k K_e) x_local` for element `e`,
    /// entirely from the compact geometry record. `R` = fused RHS,
    /// interleaved locals (`x[(3k+a)*R + c]`). The scalar reference of
    /// [`Self::element_apply_lanes`].
    fn element_apply<const R: usize>(&self, e: usize, x: &[f64], y: &mut [f64]) {
        let (dl, vol, rho, lam, mu) = geometry(&self.data.geo, e);
        let t = &self.data.tables;

        // --- mass: y += c_m * rho * vol * (Mhat ⊗ I3) x
        let mscale = self.c_m * rho * vol;
        if mscale != 0.0 {
            for i in 0..10 {
                let mut acc = [[0.0f64; R]; 3];
                for j in 0..10 {
                    let mij = t.mhat[10 * i + j];
                    for a in 0..3 {
                        for c in 0..R {
                            acc[a][c] += mij * x[(3 * j + a) * R + c];
                        }
                    }
                }
                for a in 0..3 {
                    for c in 0..R {
                        y[(3 * i + a) * R + c] += mscale * acc[a][c];
                    }
                }
            }
        }

        // --- stiffness: strain/stress loop over the degree-2 rule
        let kscale = self.c_k * vol;
        if kscale != 0.0 {
            for (gt, w) in &t.grad_table {
                let gr = phys_gradients(gt, &dl);
                let wv = kscale * w;
                for c in 0..R {
                    // displacement gradient H = sum_i x_i ⊗ g_i (3x3)
                    let mut h = [0.0f64; 9];
                    for i in 0..10 {
                        let (u0, u1, u2) = (
                            x[(3 * i) * R + c],
                            x[(3 * i + 1) * R + c],
                            x[(3 * i + 2) * R + c],
                        );
                        let gi = &gr[i];
                        h[0] += u0 * gi[0];
                        h[1] += u0 * gi[1];
                        h[2] += u0 * gi[2];
                        h[3] += u1 * gi[0];
                        h[4] += u1 * gi[1];
                        h[5] += u1 * gi[2];
                        h[6] += u2 * gi[0];
                        h[7] += u2 * gi[1];
                        h[8] += u2 * gi[2];
                    }
                    // stress sigma = lam tr(eps) I + 2 mu eps, eps = sym(H)
                    let tr = h[0] + h[4] + h[8];
                    let lt = lam * tr;
                    let s00 = lt + 2.0 * mu * h[0];
                    let s11 = lt + 2.0 * mu * h[4];
                    let s22 = lt + 2.0 * mu * h[8];
                    let s01 = mu * (h[1] + h[3]);
                    let s02 = mu * (h[2] + h[6]);
                    let s12 = mu * (h[5] + h[7]);
                    // nodal forces f_i = w V sigma g_i
                    for i in 0..10 {
                        let gi = &gr[i];
                        y[(3 * i) * R + c] += wv * (s00 * gi[0] + s01 * gi[1] + s02 * gi[2]);
                        y[(3 * i + 1) * R + c] += wv * (s01 * gi[0] + s11 * gi[1] + s12 * gi[2]);
                        y[(3 * i + 2) * R + c] += wv * (s02 * gi[0] + s12 * gi[1] + s22 * gi[2]);
                    }
                }
            }
        }
    }

    /// [`Self::element_apply`] with the `R` cases as SIMD lanes (`x[3k+a]`
    /// holds the `R` cases of local DOF `(k, a)`). Every lane performs the
    /// scalar kernel's operations in the same order — the per-case loop
    /// only moves innermost — so the result is bitwise-equal.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn element_apply_lanes<const R: usize>(
        &self,
        e: usize,
        x: &[[f64; R]; 30],
        y: &mut [[f64; R]; 30],
    ) {
        let (dl, vol, rho, lam, mu) = geometry(&self.data.geo, e);
        let t = &self.data.tables;

        let mscale = self.c_m * rho * vol;
        if mscale != 0.0 {
            for i in 0..10 {
                let mut acc = [[0.0f64; R]; 3];
                for j in 0..10 {
                    let mij = t.mhat[10 * i + j];
                    for a in 0..3 {
                        for c in 0..R {
                            acc[a][c] += mij * x[3 * j + a][c];
                        }
                    }
                }
                for a in 0..3 {
                    for c in 0..R {
                        y[3 * i + a][c] += mscale * acc[a][c];
                    }
                }
            }
        }

        let kscale = self.c_k * vol;
        if kscale != 0.0 {
            for (gt, w) in &t.grad_table {
                let gr = phys_gradients(gt, &dl);
                let wv = kscale * w;
                let mut h = [[0.0f64; R]; 9];
                for i in 0..10 {
                    let gi = &gr[i];
                    for c in 0..R {
                        let (u0, u1, u2) = (x[3 * i][c], x[3 * i + 1][c], x[3 * i + 2][c]);
                        h[0][c] += u0 * gi[0];
                        h[1][c] += u0 * gi[1];
                        h[2][c] += u0 * gi[2];
                        h[3][c] += u1 * gi[0];
                        h[4][c] += u1 * gi[1];
                        h[5][c] += u1 * gi[2];
                        h[6][c] += u2 * gi[0];
                        h[7][c] += u2 * gi[1];
                        h[8][c] += u2 * gi[2];
                    }
                }
                // stress columns: s00, s11, s22, s01, s02, s12
                let mut s = [[0.0f64; R]; 6];
                for c in 0..R {
                    let tr = h[0][c] + h[4][c] + h[8][c];
                    let lt = lam * tr;
                    s[0][c] = lt + 2.0 * mu * h[0][c];
                    s[1][c] = lt + 2.0 * mu * h[4][c];
                    s[2][c] = lt + 2.0 * mu * h[8][c];
                    s[3][c] = mu * (h[1][c] + h[3][c]);
                    s[4][c] = mu * (h[2][c] + h[6][c]);
                    s[5][c] = mu * (h[5][c] + h[7][c]);
                }
                let [s00, s11, s22, s01, s02, s12] = s;
                for i in 0..10 {
                    let gi = &gr[i];
                    for c in 0..R {
                        y[3 * i][c] += wv * (s00[c] * gi[0] + s01[c] * gi[1] + s02[c] * gi[2]);
                        y[3 * i + 1][c] += wv * (s01[c] * gi[0] + s11[c] * gi[1] + s12[c] * gi[2]);
                        y[3 * i + 2][c] += wv * (s02[c] * gi[0] + s12[c] * gi[1] + s22[c] * gi[2]);
                    }
                }
            }
        }
    }

    /// Element `e`'s masked local inputs through
    /// [`Self::element_apply`] into its block `yl` (`30R` values): the
    /// scalar reference path.
    fn element_local<const R: usize>(&self, e: usize, x: &[f64], yl: &mut [f64]) {
        let mut xl = [0.0f64; 240];
        let xl = &mut xl[..30 * R];
        for (k, &n) in self.plan.elems()[e].iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                for c in 0..R {
                    xl[(3 * k + a) * R + c] = self.masked(dof, x[dof * R + c]);
                }
            }
        }
        yl.fill(0.0);
        self.element_apply::<R>(e, xl, yl);
    }

    /// [`Self::element_local`] with the lane kernel: a contiguous
    /// `3R`-wide gather per node and [`Self::element_apply_lanes`].
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn element_local_lanes<const R: usize>(&self, e: usize, x: &[f64], yl: &mut [f64]) {
        let rows = x.as_chunks::<R>().0;
        let mut xl = [[0.0f64; R]; 30];
        for (k, &n) in self.plan.elems()[e].iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                if self.fixed.is_empty() || !self.fixed[dof] {
                    xl[3 * k + a] = rows[dof];
                }
            }
        }
        let yl: &mut [[f64; R]; 30] = (yl.as_chunks_mut::<R>().0)
            .try_into()
            .expect("30 local DOFs per element");
        *yl = [[0.0; R]; 30];
        self.element_apply_lanes::<R>(e, &xl, yl);
    }

    /// Face `f`'s masked local inputs through its cached dashpot matrix
    /// into its block `yl` (`18R` values).
    #[inline(always)]
    fn face_local<const R: usize>(&self, f: usize, x: &[f64], yl: &mut [f64]) {
        let mut xl = [0.0f64; 144];
        let xl = &mut xl[..18 * R];
        for (k, &n) in self.plan.faces()[f].iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                for c in 0..R {
                    xl[(3 * k + a) * R + c] = self.masked(dof, x[dof * R + c]);
                }
            }
        }
        yl.fill(0.0);
        let cb = &self.cb[f * 171..(f + 1) * 171];
        sym2_matvec_add_multi::<R>(self.c_b, cb, 0.0, cb, xl, yl, 18);
    }

    /// Phase 1 on one thread: claim element and face chunks until both
    /// queues are empty, computing each entity's local result into its
    /// block. `lanes` picks the lane element kernel.
    #[inline(always)]
    fn local_results<const R: usize>(&self, x: &[f64], elems: &Queue, faces: &Queue, lanes: bool) {
        #[cfg(not(target_arch = "x86_64"))]
        let _ = lanes;
        while let Some((i, chunk)) = claim(elems) {
            for (j, yl) in chunk.chunks_exact_mut(30 * R).enumerate() {
                let e = i * ELEM_CHUNK + j;
                #[cfg(target_arch = "x86_64")]
                if lanes {
                    self.element_local_lanes::<R>(e, x, yl);
                    continue;
                }
                self.element_local::<R>(e, x, yl);
            }
        }
        while let Some((i, chunk)) = claim(faces) {
            for (j, yl) in chunk.chunks_exact_mut(18 * R).enumerate() {
                self.face_local::<R>(i * FACE_CHUNK + j, x, yl);
            }
        }
    }

    /// [`Self::local_results`] with the lane kernels, compiled for AVX2
    /// (the case loops of the inlined face kernel become lanes too).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn local_results_avx2<const R: usize>(&self, x: &[f64], elems: &Queue, faces: &Queue) {
        self.local_results::<R>(x, elems, faces, true);
    }

    /// Phase 2 for the nodes from `first` on (`y` holds their rows): sum
    /// each node's incidence blocks of `blocks` from zero, in incidence
    /// order, then apply the Dirichlet identity.
    fn gather<const R: usize>(
        &self,
        first: usize,
        blocks: &[[f64; R]],
        x: &[f64],
        y: &mut [f64],
        faces: bool,
    ) {
        let identity = self.identity_on_fixed && !self.fixed.is_empty();
        let xr = x.as_chunks::<R>().0;
        for (i, yn) in y.as_chunks_mut::<R>().0.chunks_exact_mut(3).enumerate() {
            let n = first + i;
            let mut acc = [[0.0f64; R]; 3];
            let inc = self.plan.elem_inc.of(n).iter();
            let face_inc = if faces { self.plan.face_inc.of(n) } else { &[] };
            for &b in inc.chain(face_inc) {
                let src = &blocks[3 * b as usize..3 * b as usize + 3];
                for a in 0..3 {
                    for c in 0..R {
                        acc[a][c] += src[a][c];
                    }
                }
            }
            for a in 0..3 {
                let dof = 3 * n + a;
                yn[a] = if identity && self.fixed[dof] {
                    xr[dof]
                } else {
                    acc[a]
                };
            }
        }
    }

    /// The apply with `R` fused cases; `simd == false` forces the scalar
    /// reference kernels.
    ///
    /// Phase 1 computes every element's and dashpot face's local result
    /// into its own block of a buffer; phase 2 sums, per node, its blocks
    /// in the plan's incidence order (element colors, then face colors)
    /// into `y`. That is the order in which a colored scatter adds them,
    /// and each node gets at most one contribution per color, so `y` is
    /// bitwise the scatter's. Both phases split into fixed chunks that the
    /// kernel pool's threads claim, and no value depends on which thread
    /// computes it, so `y` does not depend on the thread count either.
    fn apply_r<const R: usize>(&self, x: &[f64], y: &mut [f64], simd: bool) {
        let len = 3 * self.n_nodes() * R;
        assert_eq!(x.len(), len, "input length");
        assert_eq!(y.len(), len, "output length");
        let avx2 = simd && hetsolve_sparse::simd::avx2();
        #[cfg(not(target_arch = "x86_64"))]
        let _ = avx2;
        let (ne, nf) = (self.data.n_elems, self.plan.faces().len());
        let faces = self.c_b != 0.0;
        let nt = if self.parallel && ne * R >= PAR_GRAIN {
            usize::MAX
        } else {
            1
        };
        let mut buf = self.plan.take_buffer((10 * ne + 6 * nf) * 3 * R);
        let (elem_blocks, face_blocks) = buf.split_at_mut(30 * R * ne);
        let face_blocks = if faces {
            &mut face_blocks[..18 * R * nf]
        } else {
            &mut []
        };
        let elems = Mutex::new(elem_blocks.chunks_mut(ELEM_CHUNK * 30 * R).enumerate());
        let faces_q = Mutex::new(face_blocks.chunks_mut(FACE_CHUNK * 18 * R).enumerate());
        pool::run(nt, |_, _| {
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `avx2` is set only when AVX2 was detected at run
                // time above.
                return unsafe { self.local_results_avx2::<R>(x, &elems, &faces_q) };
            }
            self.local_results::<R>(x, &elems, &faces_q, false);
        });
        let blocks = buf.as_chunks::<R>().0;
        let nodes = Mutex::new(y.chunks_mut(NODE_CHUNK * 3 * R).enumerate());
        pool::run(nt, |_, _| {
            while let Some((i, yc)) = claim(&nodes) {
                self.gather::<R>(i * NODE_CHUNK, blocks, x, yc, faces);
            }
        });
        self.plan.put_buffer(buf);
    }

    fn dispatch(&self, x: &[f64], y: &mut [f64], simd: bool) {
        match self.r {
            1 => self.apply_r::<1>(x, y, simd),
            2 => self.apply_r::<2>(x, y, simd),
            4 => self.apply_r::<4>(x, y, simd),
            8 => self.apply_r::<8>(x, y, simd),
            _ => unreachable!("validated in constructor"),
        }
    }

    /// Diagonal 3×3 blocks (block-Jacobi setup): computed by probing the
    /// reference tables per element, plus face and Dirichlet contributions.
    pub fn diagonal_blocks(&self) -> Vec<[f64; 9]> {
        let t = &self.data.tables;
        let mut out = vec![[0.0f64; 9]; self.n_nodes()];
        for (e, el) in self.plan.elems().iter().enumerate() {
            let (dl, vol, rho, lam, mu) = geometry(&self.data.geo, e);
            for (k, &n) in el.iter().enumerate() {
                let blk = &mut out[n as usize];
                // mass diagonal block: c_m rho V Mhat_kk I
                let md = self.c_m * rho * vol * t.mhat[10 * k + k];
                blk[0] += md;
                blk[4] += md;
                blk[8] += md;
                // stiffness diagonal block via the quadrature loop
                for (gt, w) in &t.grad_table {
                    let mut gi = [0.0f64; 3];
                    for a in 0..4 {
                        let c = gt[4 * k + a];
                        gi[0] += c * dl[a][0];
                        gi[1] += c * dl[a][1];
                        gi[2] += c * dl[a][2];
                    }
                    let wv = self.c_k * vol * w;
                    let dot = gi[0] * gi[0] + gi[1] * gi[1] + gi[2] * gi[2];
                    for a in 0..3 {
                        for b in 0..3 {
                            blk[3 * a + b] += wv
                                * (lam * gi[a] * gi[b]
                                    + mu * (gi[b] * gi[a] + if a == b { dot } else { 0.0 }));
                        }
                    }
                }
            }
        }
        let pidx = hetsolve_sparse::sym::packed_idx;
        for (f, fc) in self.plan.faces().iter().enumerate() {
            let cb = &self.cb[f * 171..(f + 1) * 171];
            for (k, &n) in fc.iter().enumerate() {
                let blk = &mut out[n as usize];
                for a in 0..3 {
                    for b in 0..3 {
                        blk[3 * a + b] += self.c_b * cb[pidx(3 * k + a, 3 * k + b)];
                    }
                }
            }
        }
        if !self.fixed.is_empty() {
            for n in 0..self.n_nodes() {
                for a in 0..3 {
                    if self.fixed[3 * n + a] {
                        let blk = &mut out[n];
                        for b in 0..3 {
                            blk[3 * a + b] = if a == b { 1.0 } else { 0.0 };
                            blk[3 * b + a] = if a == b { 1.0 } else { 0.0 };
                        }
                    }
                }
            }
        }
        out
    }
}

/// Analytic cost of one compact-EBE apply with `r` fused RHS over
/// `n_elems` elements, `n_faces` dashpot faces, and `n_dofs` unknowns.
pub fn compact_ebe_counts(n_elems: usize, n_faces: usize, n_dofs: usize, r: usize) -> KernelCounts {
    let rf = r as f64;
    let (ne, nf) = (n_elems as f64, n_faces as f64);
    KernelCounts {
        // mass ~600 r; stiffness: gradients 960 shared + (strain 180 +
        // stress 15 + forces 360) r per qp x 4 qps ≈ 2200 r; total per
        // element ≈ 960 + 2800 r (≈ paper's 3.8 kflop at r = 1).
        flops: ne * (960.0 + 2800.0 * rf) + nf * 648.0 * rf,
        // compact geometry (128 B) + ids (40 B) per element; faces cached.
        bytes_stream: ne * (GEO_STRIDE as f64 * 8.0 + 40.0) + nf * (171.0 * 8.0 + 24.0),
        // cache-filtered gather/scatter footprint (x read + q written).
        bytes_rand: 2.0 * 2.0 * n_dofs as f64 * 8.0 * rf,
        rand_transactions: 2.0 * (ne * 30.0 + nf * 18.0),
        rhs_fused: r,
    }
}

impl LinearOperator for CompactEbe<'_> {
    fn n(&self) -> usize {
        3 * self.n_nodes()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(self.r, 1, "use apply_multi for fused-RHS operators");
        self.dispatch(x, y, true);
    }

    fn counts(&self) -> KernelCounts {
        compact_ebe_counts(
            self.plan.elems().len(),
            self.plan.faces().len(),
            3 * self.n_nodes(),
            1,
        )
    }
}

impl MultiOperator for CompactEbe<'_> {
    fn n(&self) -> usize {
        3 * self.n_nodes()
    }

    fn r(&self) -> usize {
        self.r
    }

    fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
        self.dispatch(x, y, true);
    }

    fn counts(&self) -> KernelCounts {
        compact_ebe_counts(
            self.plan.elems().len(),
            self.plan.faces().len(),
            3 * self.n_nodes(),
            self.r,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FemProblem;
    use hetsolve_mesh::{color_elements, GroundModelSpec, InterfaceShape};
    use hetsolve_sparse::ebe::{EbeData, EbeOperator};

    fn problem() -> FemProblem {
        problem_of(3, 3, 2)
    }

    fn problem_of(nx: usize, ny: usize, nz: usize) -> FemProblem {
        FemProblem::paper_like(&GroundModelSpec::paper_like(
            nx,
            ny,
            nz,
            InterfaceShape::Stratified,
        ))
    }

    fn as_slice(mask: &crate::constraint::DofMask) -> Vec<bool> {
        (0..mask.n_dofs()).map(|d| mask.is_fixed(d)).collect()
    }

    /// Problem, its validated plan, compact data and Dirichlet mask.
    struct Fixture {
        p: FemProblem,
        coloring: Coloring,
        plan: EbePlan,
        compact: CompactElements,
        fixed: Vec<bool>,
    }

    fn fixture() -> Fixture {
        fixture_of(problem())
    }

    fn fixture_of(p: FemProblem) -> Fixture {
        let coloring = color_elements(&p.model.mesh);
        let plan = EbePlan::new(
            p.n_nodes(),
            &p.model.mesh.elems,
            &coloring,
            &p.dashpots.faces,
        );
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        let fixed = as_slice(&p.mask);
        Fixture {
            p,
            coloring,
            plan,
            compact,
            fixed,
        }
    }

    impl Fixture {
        /// The system operator `A` with `r` fused cases.
        fn op(&self, parallel: bool, r: usize) -> CompactEbe<'_> {
            let a = self.p.a_coeffs();
            CompactEbe::new(
                &self.plan,
                &self.compact,
                &self.p.dashpots.cb,
                (a.c_m, a.c_k, a.c_b),
                &self.fixed,
                parallel,
                r,
            )
        }

        fn cached(&self) -> EbeOperator<'_> {
            let a = self.p.a_coeffs();
            let data = EbeData {
                n_nodes: self.p.n_nodes(),
                elems: &self.p.model.mesh.elems,
                me: &self.p.elements.me,
                ke: &self.p.elements.ke,
                faces: &self.p.dashpots.faces,
                cb: &self.p.dashpots.cb,
                c_m: a.c_m,
                c_k: a.c_k,
                c_b: a.c_b,
                fixed: &self.fixed,
            };
            EbeOperator::new(data, &self.coloring, false)
        }
    }

    /// Interleaved `r`-case input with distinct values per case.
    fn input(n: usize, r: usize) -> Vec<f64> {
        let mut x = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                x[i * r + c] = ((i * (c + 3)) as f64 * 0.23).sin();
            }
        }
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn compact_matches_cached_matrices() {
        let fx = fixture();
        let op_c = fx.op(false, 1);
        let op_m = fx.cached();
        let n = fx.p.n_dofs();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        op_c.apply(&x, &mut y1);
        op_m.apply(&x, &mut y2);
        let scale = y2.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for i in 0..n {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-9 * scale,
                "dof {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let fx = fixture();
        let n = fx.p.n_dofs();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).cos()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        fx.op(false, 1).apply(&x, &mut y1);
        fx.op(true, 1).apply(&x, &mut y2);
        assert_eq!(bits(&y1), bits(&y2));
    }

    /// Each case of a fused apply is bitwise the single-case apply: the
    /// per-case operation order does not depend on `r`.
    #[test]
    fn multi_rhs_matches_single() {
        let fx = fixture();
        let n = fx.p.n_dofs();
        let single = fx.op(false, 1);
        for r in [2usize, 4, 8] {
            let x = input(n, r);
            let mut y = vec![0.0; n * r];
            fx.op(true, r).apply_multi(&x, &mut y);
            for c in 0..r {
                let xc: Vec<f64> = (0..n).map(|i| x[i * r + c]).collect();
                let mut yc = vec![0.0; n];
                single.apply(&xc, &mut yc);
                let yr: Vec<f64> = (0..n).map(|i| y[i * r + c]).collect();
                assert_eq!(bits(&yr), bits(&yc), "r={r} case {c}");
            }
        }
    }

    /// The runtime-selected kernels (the AVX2 lanes on hosts that have
    /// them) are bitwise-equal to the scalar reference, with a Dirichlet
    /// mask and the dashpot faces active, for every fused width.
    #[test]
    fn dispatched_matches_scalar_bitwise() {
        let fx = fixture();
        let n = fx.p.n_dofs();
        assert!(fx.fixed.iter().any(|&f| f), "fixture has Dirichlet DOFs");
        assert!(!fx.plan.faces().is_empty(), "fixture has dashpot faces");
        for r in [1usize, 2, 4, 8] {
            let op = fx.op(false, r);
            assert!(op.c_b != 0.0);
            let x = input(n, r);
            let mut fast = vec![0.0; n * r];
            let mut reference = vec![0.0; n * r];
            op.dispatch(&x, &mut fast, true);
            op.dispatch(&x, &mut reference, false);
            assert_eq!(bits(&fast), bits(&reference), "r={r}");
        }
        // mass-only (no stiffness, no faces) and no mask: the RHS operators
        let m = CompactEbe::new(
            &fx.plan,
            &fx.compact,
            &fx.p.dashpots.cb,
            (1.0, 0.0, 0.0),
            &[],
            false,
            4,
        );
        let x = input(n, 4);
        let mut fast = vec![0.0; n * 4];
        let mut reference = vec![0.0; n * 4];
        m.dispatch(&x, &mut fast, true);
        m.dispatch(&x, &mut reference, false);
        assert_eq!(bits(&fast), bits(&reference), "mass only");
    }

    /// Above the work grain the apply runs on the kernel pool (when the
    /// host has more than one hardware thread); it is bitwise the
    /// one-thread apply for every fused width, kernel variant and with
    /// the Dirichlet identity on or off.
    #[test]
    fn threaded_matches_one_thread_bitwise() {
        let fx = fixture_of(problem_of(8, 8, 4));
        let n = fx.p.n_dofs();
        assert!(
            fx.compact.n_elems >= PAR_GRAIN,
            "mesh is above the grain at r = 1"
        );
        assert!(fx.fixed.iter().any(|&f| f), "fixture has Dirichlet DOFs");
        assert!(!fx.plan.faces().is_empty(), "fixture has dashpot faces");
        for r in [1usize, 2, 4, 8] {
            let x = input(n, r);
            for simd in [true, false] {
                let mut one = vec![0.0; n * r];
                let mut threaded = vec![f64::NAN; n * r];
                fx.op(false, r).dispatch(&x, &mut one, simd);
                fx.op(true, r).dispatch(&x, &mut threaded, simd);
                assert_eq!(bits(&threaded), bits(&one), "r={r} simd={simd}");
            }
            let mut one = vec![0.0; n * r];
            let mut threaded = vec![0.0; n * r];
            fx.op(false, r)
                .without_fixed_identity()
                .apply_multi(&x, &mut one);
            fx.op(true, r)
                .without_fixed_identity()
                .apply_multi(&x, &mut threaded);
            assert_eq!(bits(&threaded), bits(&one), "r={r} without identity");
        }
    }

    #[test]
    fn diagonal_blocks_match_cached_ebe() {
        let fx = fixture();
        let d1 = fx.op(false, 1).diagonal_blocks();
        let d2 = fx.cached().diagonal_blocks();
        let scale = d2
            .iter()
            .flat_map(|b| b.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for n in 0..fx.p.n_nodes() {
            for k in 0..9 {
                assert!(
                    (d1[n][k] - d2[n][k]).abs() < 1e-9 * scale,
                    "node {n} entry {k}: {} vs {}",
                    d1[n][k],
                    d2[n][k]
                );
            }
        }
    }

    /// The plan's coloring validator fires before any apply: a coloring
    /// whose first group holds node-sharing elements panics with the
    /// offending pair.
    #[test]
    #[should_panic(expected = "would race")]
    fn rejects_corrupted_coloring() {
        let p = problem();
        let mut coloring = color_elements(&p.model.mesh);
        let moved = coloring.groups.remove(1);
        for &e in &moved {
            coloring.color[e as usize] = 0;
        }
        coloring.groups[0].extend(moved);
        coloring.n_colors -= 1;
        let _ = EbePlan::new(
            p.n_nodes(),
            &p.model.mesh.elems,
            &coloring,
            &p.dashpots.faces,
        );
    }

    /// Input and output lengths are checked before the apply writes.
    #[test]
    #[should_panic(expected = "output length")]
    fn rejects_short_output() {
        let fx = fixture();
        let n = fx.p.n_dofs();
        let mut y = vec![0.0; n - 1];
        fx.op(false, 1).apply(&vec![0.0; n], &mut y);
    }

    #[test]
    fn compact_memory_is_much_smaller() {
        let p = problem();
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        assert!(compact.bytes() * 20 < p.elements.bytes());
    }

    #[test]
    fn compact_counts_are_compute_heavy() {
        let c = compact_ebe_counts(10_000, 500, 45_000, 1);
        let cached = hetsolve_sparse::ebe::ebe_counts(10_000, 500, 45_000, 1);
        // same flop magnitude, far less streaming
        assert!(c.bytes_stream * 10.0 < cached.bytes_stream);
        assert!(c.intensity() > 5.0 * cached.intensity());
    }
}
