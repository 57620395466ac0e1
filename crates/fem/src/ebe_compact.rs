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
use hetsolve_sparse::parcheck::{ColorScatter, ColoredConnectivity};
use hetsolve_sparse::sym::sym2_matvec_add_multi;
use rayon::prelude::*;

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

/// The validated scatter plan of a Tet10 mesh and its Tri6 dashpot faces:
/// the element connectivity with its coloring and the face connectivity
/// with its coloring, each checked by `validate_groups`. Build it once per
/// mesh; every [`CompactEbe`] borrows it, so building an operator does no
/// coloring work and cannot skip the check.
#[derive(Debug, Clone)]
pub struct EbePlan {
    elems: ColoredConnectivity<10>,
    faces: ColoredConnectivity<6>,
}

impl EbePlan {
    /// Validate `coloring` over `elems`, color the dashpot `faces` and
    /// validate that coloring too. Panics with the offending pair when two
    /// same-color entities share a node (their scatters would race).
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
        EbePlan { elems, faces }
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
}

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

    /// Gather element `e`'s local inputs, apply [`Self::element_apply`]
    /// and scatter the result: the scalar reference path.
    ///
    /// # Safety
    ///
    /// `e` must belong to the element color group of `scatter`'s current
    /// pass, and `scatter` must wrap `3 * n_nodes * R` values.
    unsafe fn element_scalar<const R: usize>(&self, scatter: &ColorScatter, e: u32, x: &[f64]) {
        let el = &self.plan.elems()[e as usize];
        let mut xl = [0.0f64; 240];
        let mut yl = [0.0f64; 240];
        let xl = &mut xl[..30 * R];
        let yl = &mut yl[..30 * R];
        for (k, &n) in el.iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                for c in 0..R {
                    xl[(3 * k + a) * R + c] = self.masked(dof, x[dof * R + c]);
                }
            }
        }
        self.element_apply::<R>(e as usize, xl, yl);
        for (k, &n) in el.iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                for c in 0..R {
                    // SAFETY: same-color elements touch disjoint nodes (the
                    // plan validated the coloring; the caller passes an
                    // element of the current pass), and node ids are below
                    // `n_nodes`, so the slot is in bounds.
                    unsafe { scatter.add(e, dof * R + c, yl[(3 * k + a) * R + c]) };
                }
            }
        }
    }

    /// [`Self::element_scalar`] compiled for AVX2 with the lane kernel: a
    /// contiguous `3R`-wide gather per node, [`Self::element_apply_lanes`],
    /// and the same scatter.
    ///
    /// # Safety
    ///
    /// The host must support AVX2, plus the contract of
    /// [`Self::element_scalar`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn element_avx2<const R: usize>(&self, scatter: &ColorScatter, e: u32, x: &[f64]) {
        let el = &self.plan.elems()[e as usize];
        let rows = x.as_chunks::<R>().0;
        let mut xl = [[0.0f64; R]; 30];
        for (k, &n) in el.iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                if self.fixed.is_empty() || !self.fixed[dof] {
                    xl[3 * k + a] = rows[dof];
                }
            }
        }
        let mut yl = [[0.0f64; R]; 30];
        self.element_apply_lanes::<R>(e as usize, &xl, &mut yl);
        for (k, &n) in el.iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                for c in 0..R {
                    // SAFETY: as in `element_scalar` (same caller
                    // contract, same slots).
                    unsafe { scatter.add(e, dof * R + c, yl[3 * k + a][c]) };
                }
            }
        }
    }

    /// Gather face `f`'s local inputs, apply its cached dashpot matrix and
    /// scatter the result.
    ///
    /// # Safety
    ///
    /// `f` must belong to the face color group of `scatter`'s current
    /// pass, and `scatter` must wrap `3 * n_nodes * R` values.
    #[inline(always)]
    unsafe fn face_scalar<const R: usize>(&self, scatter: &ColorScatter, f: u32, x: &[f64]) {
        let fc = &self.plan.faces()[f as usize];
        let mut xl = [0.0f64; 144];
        let mut yl = [0.0f64; 144];
        let xl = &mut xl[..18 * R];
        let yl = &mut yl[..18 * R];
        for (k, &n) in fc.iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                for c in 0..R {
                    xl[(3 * k + a) * R + c] = self.masked(dof, x[dof * R + c]);
                }
            }
        }
        let cb = &self.cb[f as usize * 171..(f as usize + 1) * 171];
        sym2_matvec_add_multi::<R>(self.c_b, cb, 0.0, cb, xl, yl, 18);
        for (k, &n) in fc.iter().enumerate() {
            for a in 0..3 {
                let dof = 3 * n as usize + a;
                for c in 0..R {
                    // SAFETY: the face coloring of the plan guarantees
                    // disjoint per-pass writes (the caller passes a face of
                    // the current pass); node ids are below `n_nodes`.
                    unsafe { scatter.add(f, dof * R + c, yl[(3 * k + a) * R + c]) };
                }
            }
        }
    }

    /// [`Self::face_scalar`] compiled for AVX2: the same code, whose `R`
    /// loops (and those of the inlined `sym2_matvec_add_multi`) become
    /// SIMD lanes.
    ///
    /// # Safety
    ///
    /// The host must support AVX2, plus the contract of
    /// [`Self::face_scalar`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn face_avx2<const R: usize>(&self, scatter: &ColorScatter, f: u32, x: &[f64]) {
        // SAFETY: the caller upholds `face_scalar`'s contract.
        unsafe { self.face_scalar::<R>(scatter, f, x) }
    }

    /// One colored scatter pass per group of `groups`, calling `body` for
    /// every entity of the pass (rayon-parallel within a pass when
    /// `parallel`). Groups come from the validated plan, so `body` only
    /// ever sees entities of `scatter`'s current pass.
    fn color_passes(
        &self,
        scatter: &mut ColorScatter,
        groups: &[Vec<u32>],
        body: impl Fn(&ColorScatter, u32) + Sync + Send,
    ) {
        for group in groups {
            scatter.begin_color();
            let scatter = &*scatter;
            if self.parallel {
                group.par_iter().for_each(|&id| body(scatter, id));
            } else {
                group.iter().for_each(|&id| body(scatter, id));
            }
        }
    }

    /// The apply with `R` fused cases; `simd == false` forces the scalar
    /// reference kernels.
    fn apply_r<const R: usize>(&self, x: &[f64], y: &mut [f64], simd: bool) {
        // The scatter writes through a raw pointer; its bounds rest on this
        // length together with the plan's node-id check.
        let len = 3 * self.n_nodes() * R;
        assert_eq!(x.len(), len, "input length");
        assert_eq!(y.len(), len, "output length");
        y.fill(0.0);
        let mut scatter = ColorScatter::new(y);
        let avx2 = simd && hetsolve_sparse::simd::avx2();
        let elems = self.plan.elems.groups();
        if avx2 {
            #[cfg(target_arch = "x86_64")]
            self.color_passes(&mut scatter, elems, |s, e| {
                // SAFETY: AVX2 was detected at run time above; `e` is an
                // element of `s`'s current pass (`color_passes`), and `s`
                // wraps `y`, whose length was asserted above.
                unsafe { self.element_avx2::<R>(s, e, x) }
            });
        } else {
            self.color_passes(&mut scatter, elems, |s, e| {
                // SAFETY: `e` is an element of `s`'s current pass
                // (`color_passes`); `s` wraps `y` of asserted length.
                unsafe { self.element_scalar::<R>(s, e, x) }
            });
        }
        // boundary dashpots (cached packed matrices)
        if self.c_b != 0.0 {
            let faces = self.plan.faces.groups();
            if avx2 {
                #[cfg(target_arch = "x86_64")]
                self.color_passes(&mut scatter, faces, |s, f| {
                    // SAFETY: AVX2 was detected at run time above; `f` is
                    // a face of `s`'s current pass, `s` wraps `y`.
                    unsafe { self.face_avx2::<R>(s, f, x) }
                });
            } else {
                self.color_passes(&mut scatter, faces, |s, f| {
                    // SAFETY: `f` is a face of `s`'s current pass, `s`
                    // wraps `y` of asserted length.
                    unsafe { self.face_scalar::<R>(s, f, x) }
                });
            }
        }
        drop(scatter);
        // Dirichlet: identity on fixed DOFs
        if self.identity_on_fixed {
            FixedMask::new(self.fixed).fix_output_multi(x, y, R);
        }
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
        FemProblem::paper_like(&GroundModelSpec::paper_like(
            3,
            3,
            2,
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
        let p = problem();
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

    /// The plan's coloring validator fires before any scatter: a coloring
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

    /// Input and output lengths are checked before the scatter writes.
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
