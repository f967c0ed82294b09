//! Affine expressions over loop variables.
//!
//! Every subscript and loop bound in the model is affine:
//! `c0 + c1*v1 + ... + cn*vn`. This is exactly the class the paper's
//! analyses handle (uniformly generated references differ only in `c0`).

use std::collections::BTreeMap;
use std::fmt;

/// An affine expression: a constant plus integer-scaled loop variables.
///
/// Terms are kept sorted by variable name with no zero coefficients, so
/// structural equality means mathematical equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    /// (variable, coefficient) pairs, sorted by variable, coefficients != 0.
    terms: Vec<(String, i64)>,
    /// The constant term.
    constant: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        Self {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `v` (a bare loop variable).
    pub fn var(v: impl Into<String>) -> Self {
        Self {
            terms: vec![(v.into(), 1)],
            constant: 0,
        }
    }

    /// The expression `coeff * v`.
    pub fn scaled(v: impl Into<String>, coeff: i64) -> Self {
        if coeff == 0 {
            return Self::constant(0);
        }
        Self {
            terms: vec![(v.into(), coeff)],
            constant: 0,
        }
    }

    /// The expression `v + c` — the workhorse for stencil subscripts like
    /// `A(i, j+1)`.
    pub fn var_plus(v: impl Into<String>, c: i64) -> Self {
        Self {
            terms: vec![(v.into(), 1)],
            constant: c,
        }
    }

    /// This expression plus a constant.
    pub fn plus(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// Sum of two affine expressions.
    ///
    /// # Panics
    /// Panics when a coefficient or the constant overflows `i64`; see
    /// [`AffineExpr::checked_add`].
    pub fn add(&self, other: &Self) -> Self {
        self.checked_add(other)
            .expect("affine expression overflows i64")
    }

    /// [`AffineExpr::add`], or `None` when a coefficient or the constant
    /// overflows `i64`.
    pub fn checked_add(&self, other: &Self) -> Option<Self> {
        let mut map: BTreeMap<&str, i64> = BTreeMap::new();
        for (v, c) in self.terms.iter().chain(&other.terms) {
            let sum = map.entry(v.as_str()).or_insert(0);
            *sum = sum.checked_add(*c)?;
        }
        Some(Self {
            terms: map
                .into_iter()
                .filter(|&(_, c)| c != 0)
                .map(|(v, c)| (v.to_string(), c))
                .collect(),
            constant: self.constant.checked_add(other.constant)?,
        })
    }

    /// Difference of two affine expressions.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.scale(-1))
    }

    /// This expression times an integer.
    ///
    /// # Panics
    /// Panics when a coefficient or the constant overflows `i64`; see
    /// [`AffineExpr::checked_scale`].
    pub fn scale(&self, k: i64) -> Self {
        self.checked_scale(k)
            .expect("affine expression overflows i64")
    }

    /// [`AffineExpr::scale`], or `None` when a coefficient or the constant
    /// overflows `i64`.
    pub fn checked_scale(&self, k: i64) -> Option<Self> {
        if k == 0 {
            return Some(Self::constant(0));
        }
        Some(Self {
            terms: self
                .terms
                .iter()
                .map(|(v, c)| Some((v.clone(), c.checked_mul(k)?)))
                .collect::<Option<_>>()?,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// The constant term.
    #[inline]
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Coefficient of variable `v` (0 if absent).
    pub fn coeff(&self, v: &str) -> i64 {
        self.terms
            .binary_search_by(|(name, _)| name.as_str().cmp(v))
            .map(|i| self.terms[i].1)
            .unwrap_or(0)
    }

    /// Iterator over the nonzero (variable, coefficient) terms.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(v, c)| (v.as_str(), *c))
    }

    /// True iff the expression mentions no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Variables mentioned, in sorted order.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().map(|(v, _)| v.as_str())
    }

    /// Evaluate with a lookup for variable values.
    ///
    /// Returns `Err(var)` naming the first unbound variable.
    pub fn eval(&self, lookup: impl Fn(&str) -> Option<i64>) -> Result<i64, String> {
        let mut acc = self.constant;
        for (v, c) in &self.terms {
            let val = lookup(v).ok_or_else(|| v.clone())?;
            acc += c * val;
        }
        Ok(acc)
    }

    /// Substitute variable `v` with expression `e`.
    pub fn substitute(&self, v: &str, e: &AffineExpr) -> Self {
        let mut out = Self::constant(self.constant);
        for (name, c) in &self.terms {
            if name == v {
                out = out.add(&e.scale(*c));
            } else {
                out = out.add(&Self::scaled(name.clone(), *c));
            }
        }
        out
    }

    /// Rename variable `from` to `to` everywhere.
    pub fn rename(&self, from: &str, to: &str) -> Self {
        self.substitute(from, &Self::var(to))
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        Self::constant(c)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "{}", self.constant);
        }
        let mut first = true;
        for (v, c) in &self.terms {
            match (*c, first) {
                (1, true) => write!(f, "{v}")?,
                (-1, true) => write!(f, "-{v}")?,
                (c, true) => write!(f, "{c}*{v}")?,
                (1, false) => write!(f, " + {v}")?,
                (-1, false) => write!(f, " - {v}")?,
                (c, false) if c > 0 => write!(f, " + {c}*{v}")?,
                (c, false) => write!(f, " - {}*{v}", -c)?,
            }
            first = false;
        }
        match self.constant {
            0 => Ok(()),
            c if c > 0 => write!(f, " + {c}"),
            c => write!(f, " - {}", -c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_eval() {
        let e = AffineExpr::var("i")
            .add(&AffineExpr::scaled("j", 3))
            .plus(-2);
        let env = |v: &str| match v {
            "i" => Some(5),
            "j" => Some(2),
            _ => None,
        };
        assert_eq!(e.eval(env).unwrap(), 5 + 6 - 2);
        assert_eq!(e.coeff("i"), 1);
        assert_eq!(e.coeff("j"), 3);
        assert_eq!(e.coeff("k"), 0);
        assert_eq!(e.constant_term(), -2);
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let e = AffineExpr::var("i");
        assert_eq!(e.eval(|_| None), Err("i".to_string()));
    }

    #[test]
    fn cancellation_normalizes() {
        let e = AffineExpr::var("i").sub(&AffineExpr::var("i"));
        assert!(e.is_constant());
        assert_eq!(e, AffineExpr::constant(0));
    }

    #[test]
    fn substitution_strip_mine_shape() {
        // i -> ii + t : the substitution strip-mining performs.
        let sub = AffineExpr::var("ii").add(&AffineExpr::var("t"));
        let e = AffineExpr::scaled("i", 2).plus(1).substitute("i", &sub);
        assert_eq!(e.coeff("ii"), 2);
        assert_eq!(e.coeff("t"), 2);
        assert_eq!(e.constant_term(), 1);
        assert_eq!(e.coeff("i"), 0);
    }

    #[test]
    fn rename_keeps_structure() {
        let e = AffineExpr::var_plus("j", 1).rename("j", "jj");
        assert_eq!(e, AffineExpr::var_plus("jj", 1));
    }

    #[test]
    fn display_is_readable() {
        let e = AffineExpr::var("i")
            .add(&AffineExpr::scaled("j", -2))
            .plus(3);
        assert_eq!(e.to_string(), "i - 2*j + 3");
        assert_eq!(AffineExpr::constant(-4).to_string(), "-4");
        assert_eq!(AffineExpr::var("k").to_string(), "k");
    }

    #[test]
    fn equality_is_structural_and_canonical() {
        let a = AffineExpr::var("i").add(&AffineExpr::var("j"));
        let b = AffineExpr::var("j").add(&AffineExpr::var("i"));
        assert_eq!(a, b);
    }

    #[test]
    fn scale_by_zero_is_zero() {
        let e = AffineExpr::var("i").plus(7).scale(0);
        assert_eq!(e, AffineExpr::constant(0));
    }
}
