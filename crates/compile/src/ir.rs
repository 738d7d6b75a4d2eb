//! The program representation: arrays, loop variables, affine index
//! expressions, and a builder for loop nests.

/// Identifier of a declared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub usize);

/// Identifier of a loop variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopVar(pub usize);

/// An affine (plus modulo) index expression:
/// `Σ coeff_k · var_k + constant`, optionally reduced `mod m`.
///
/// Modulo is applied last and makes strided wrap-around patterns
/// (banked FFT stages, circular buffers) expressible while keeping
/// evaluation trivial.
///
/// # Example
///
/// ```
/// use dwm_compile::ir::{AffineExpr, LoopVar};
///
/// let i = LoopVar(0);
/// let e = AffineExpr::var(i).scale(3).offset(1).modulo(8);
/// assert_eq!(e.evaluate(&[5]), Some(0)); // (3·5 + 1) mod 8
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineExpr {
    terms: Vec<(LoopVar, i64)>,
    constant: i64,
    modulus: Option<i64>,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: Vec::new(),
            constant: c,
            modulus: None,
        }
    }

    /// The expression `v` (coefficient 1).
    pub fn var(v: LoopVar) -> Self {
        AffineExpr {
            terms: vec![(v, 1)],
            constant: 0,
            modulus: None,
        }
    }

    /// Multiplies every coefficient and the constant by `k`.
    pub fn scale(mut self, k: i64) -> Self {
        for (_, c) in &mut self.terms {
            *c *= k;
        }
        self.constant *= k;
        self
    }

    /// Adds a constant offset.
    pub fn offset(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Adds another variable with coefficient `k`.
    pub fn plus_var(mut self, v: LoopVar, k: i64) -> Self {
        self.terms.push((v, k));
        self
    }

    /// Adds another whole expression (modulus of `other` must be unset).
    ///
    /// # Panics
    ///
    /// Panics if `other` carries a modulus (non-affine composition).
    pub fn plus(mut self, other: AffineExpr) -> Self {
        assert!(
            other.modulus.is_none(),
            "cannot add an expression that already has a modulus"
        );
        self.terms.extend(other.terms);
        self.constant += other.constant;
        self
    }

    /// Reduces the result modulo `m` (Euclidean, result in `[0, m)`).
    ///
    /// # Panics
    ///
    /// Panics if `m <= 0`.
    pub fn modulo(mut self, m: i64) -> Self {
        assert!(m > 0, "modulus must be positive");
        self.modulus = Some(m);
        self
    }

    /// Crate-internal view of the variable terms, used by the
    /// interpreter's unbound-variable check.
    pub(crate) fn terms_for_exec(&self) -> &[(LoopVar, i64)] {
        &self.terms
    }

    /// Evaluates with `env[v.0]` as the value of variable `v`; `None`
    /// if a variable index is out of the environment's range.
    pub fn evaluate(&self, env: &[i64]) -> Option<i64> {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * env.get(v.0).copied()?;
        }
        Some(match self.modulus {
            Some(m) => acc.rem_euclid(m),
            None => acc,
        })
    }
}

/// One node of a loop nest body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A counted loop `for var in lo..hi { body }`. Bounds are affine
    /// in the enclosing loop variables, so triangular nests work.
    Loop {
        /// The loop's induction variable.
        var: LoopVar,
        /// Inclusive lower bound.
        lo: AffineExpr,
        /// Exclusive upper bound.
        hi: AffineExpr,
        /// Loop body, executed in order.
        body: Vec<Node>,
    },
    /// A single array access.
    Access {
        /// The accessed array.
        array: ArrayId,
        /// Element index expression.
        index: AffineExpr,
        /// `true` for a store.
        write: bool,
    },
}

/// A declared array: length in elements and elements per data item
/// (block granularity for placement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Number of elements.
    pub len: usize,
    /// Elements per placement item.
    pub block: usize,
}

impl ArrayDecl {
    /// Number of placement items this array occupies.
    pub fn items(&self) -> usize {
        self.len.div_ceil(self.block)
    }
}

/// A whole program: array declarations plus a top-level statement list.
///
/// Build with [`Program::array`], [`Program::loop_var`], and
/// [`Program::for_loop`] / [`BodyBuilder`]; run with
/// [`execute`](crate::exec::execute).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    arrays: Vec<ArrayDecl>,
    vars: Vec<String>,
    root: Vec<Node>,
}

/// Builder handle for a loop body (or the program root).
#[derive(Debug)]
pub struct BodyBuilder<'a> {
    nodes: &'a mut Vec<Node>,
}

impl BodyBuilder<'_> {
    /// Appends a read of `array[index]`.
    pub fn read(&mut self, array: ArrayId, index: AffineExpr) -> &mut Self {
        self.nodes.push(Node::Access {
            array,
            index,
            write: false,
        });
        self
    }

    /// Appends a write of `array[index]`.
    pub fn write(&mut self, array: ArrayId, index: AffineExpr) -> &mut Self {
        self.nodes.push(Node::Access {
            array,
            index,
            write: true,
        });
        self
    }

    /// Appends a nested loop `for var in lo..hi` with constant bounds.
    pub fn for_loop<F>(&mut self, var: LoopVar, lo: i64, hi: i64, build: F) -> &mut Self
    where
        F: FnOnce(&mut BodyBuilder<'_>),
    {
        self.for_loop_expr(
            var,
            AffineExpr::constant(lo),
            AffineExpr::constant(hi),
            build,
        )
    }

    /// Appends a nested loop with affine bounds (triangular nests).
    pub fn for_loop_expr<F>(
        &mut self,
        var: LoopVar,
        lo: AffineExpr,
        hi: AffineExpr,
        build: F,
    ) -> &mut Self
    where
        F: FnOnce(&mut BodyBuilder<'_>),
    {
        let mut body = Vec::new();
        build(&mut BodyBuilder { nodes: &mut body });
        self.nodes.push(Node::Loop { var, lo, hi, body });
        self
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Declares an array of `len` elements, `block` elements per
    /// placement item.
    ///
    /// # Panics
    ///
    /// Panics if `len` or `block` is zero.
    pub fn array(&mut self, name: &str, len: usize, block: usize) -> ArrayId {
        assert!(len > 0 && block > 0, "arrays must be non-degenerate");
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            len,
            block,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Declares a loop variable.
    pub fn loop_var(&mut self, name: &str) -> LoopVar {
        self.vars.push(name.to_string());
        LoopVar(self.vars.len() - 1)
    }

    /// Appends a top-level loop with constant bounds.
    pub fn for_loop<F>(&mut self, var: LoopVar, lo: i64, hi: i64, build: F) -> &mut Self
    where
        F: FnOnce(&mut BodyBuilder<'_>),
    {
        let mut b = BodyBuilder {
            nodes: &mut self.root,
        };
        b.for_loop(var, lo, hi, build);
        self
    }

    /// Appends a top-level loop with affine bounds.
    pub fn for_loop_expr<F>(
        &mut self,
        var: LoopVar,
        lo: AffineExpr,
        hi: AffineExpr,
        build: F,
    ) -> &mut Self
    where
        F: FnOnce(&mut BodyBuilder<'_>),
    {
        let mut b = BodyBuilder {
            nodes: &mut self.root,
        };
        b.for_loop_expr(var, lo, hi, build);
        self
    }

    /// Appends a top-level access (outside any loop).
    pub fn access(&mut self, array: ArrayId, index: AffineExpr, write: bool) -> &mut Self {
        self.root.push(Node::Access {
            array,
            index,
            write,
        });
        self
    }

    /// The array declarations.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Number of declared loop variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The top-level statement list.
    pub fn root(&self) -> &[Node] {
        &self.root
    }

    /// Total placement items across all arrays.
    pub fn total_items(&self) -> usize {
        self.arrays.iter().map(ArrayDecl::items).sum()
    }

    /// First placement item of `array` in the global item numbering.
    pub fn array_base(&self, array: ArrayId) -> usize {
        self.arrays[..array.0].iter().map(ArrayDecl::items).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_evaluation() {
        let i = LoopVar(0);
        let j = LoopVar(1);
        let e = AffineExpr::var(i).scale(4).plus_var(j, 1).offset(2);
        assert_eq!(e.evaluate(&[3, 1]), Some(15));
        assert_eq!(e.evaluate(&[3]), None, "j unbound");
        assert_eq!(AffineExpr::constant(7).evaluate(&[]), Some(7));
    }

    #[test]
    fn modulo_is_euclidean() {
        let i = LoopVar(0);
        let e = AffineExpr::var(i).offset(-5).modulo(4);
        assert_eq!(e.evaluate(&[2]), Some(1)); // (2−5) mod 4 = 1
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn zero_modulus_rejected() {
        let _ = AffineExpr::constant(1).modulo(0);
    }

    #[test]
    fn plus_composes_terms() {
        let i = LoopVar(0);
        let j = LoopVar(1);
        let e = AffineExpr::var(i).plus(AffineExpr::var(j).scale(2).offset(1));
        assert_eq!(e.evaluate(&[10, 3]), Some(17));
    }

    #[test]
    fn program_items_and_bases() {
        let mut p = Program::new();
        let a = p.array("a", 10, 4); // 3 items
        let b = p.array("b", 8, 2); // 4 items
        assert_eq!(p.arrays()[a.0].items(), 3);
        assert_eq!(p.array_base(a), 0);
        assert_eq!(p.array_base(b), 3);
        assert_eq!(p.total_items(), 7);
    }

    #[test]
    #[should_panic(expected = "non-degenerate")]
    fn zero_length_array_rejected() {
        Program::new().array("bad", 0, 1);
    }

    #[test]
    fn builder_constructs_nested_loops() {
        let mut p = Program::new();
        let a = p.array("a", 16, 1);
        let i = p.loop_var("i");
        let j = p.loop_var("j");
        p.for_loop(i, 0, 4, |outer| {
            outer.for_loop(j, 0, 4, |inner| {
                inner.read(a, AffineExpr::var(i).scale(4).plus_var(j, 1));
            });
        });
        assert_eq!(p.root().len(), 1);
        match &p.root()[0] {
            Node::Loop { body, .. } => match &body[0] {
                Node::Loop { body, .. } => assert_eq!(body.len(), 1),
                other => panic!("expected inner loop, got {other:?}"),
            },
            other => panic!("expected loop, got {other:?}"),
        }
    }
}
