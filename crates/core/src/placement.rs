use dwm_foundation::json::{field, FromJson, JsonError, Object, ToJson, Value};
use dwm_trace::ItemId;

use crate::error::PlacementError;

/// A bijection between `n` data items and `n` word offsets on a tape.
///
/// `Placement` is the output of every algorithm in this crate and the
/// input to every cost model. Construction validates the bijection
/// property, so holders can index without further checks.
///
/// Offsets and items are both dense `0..n`; items map to
/// [`ItemId`](dwm_trace::ItemId)s of a normalized trace.
///
/// # Example
///
/// ```
/// use dwm_core::Placement;
///
/// // Item 0 → offset 2, item 1 → offset 0, item 2 → offset 1.
/// let p = Placement::from_offsets(vec![2, 0, 1])?;
/// assert_eq!(p.offset_of(0), 2);
/// assert_eq!(p.item_at(2), 0);
/// let same = Placement::from_order([1, 2, 0]);
/// assert_eq!(p, same);
/// # Ok::<(), dwm_core::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    /// `offsets[item] = offset`.
    offsets: Vec<usize>,
    /// `items[offset] = item` (inverse of `offsets`).
    items: Vec<usize>,
}

// `{"offsets":[…],"items":[…]}`, the file `dwmplace place --out` writes.
// Decoding goes through `from_offsets`, so a file that is not a
// permutation, or whose `items` is not the inverse of its `offsets`, is
// refused rather than costed.
impl ToJson for Placement {
    fn to_json(&self) -> Value {
        let mut obj = Object::new();
        obj.insert("offsets", self.offsets.to_json());
        obj.insert("items", self.items.to_json());
        Value::Obj(obj)
    }
}

impl FromJson for Placement {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| JsonError::expected("object for Placement", v))?;
        let placement = Placement::from_offsets(field(obj, "offsets")?)
            .map_err(|e| JsonError::decode(format!("invalid placement: {e}")))?;
        let items: Vec<usize> = field(obj, "items")?;
        if items != placement.items {
            return Err(JsonError::decode(
                "invalid placement: \"items\" is not the inverse of \"offsets\"",
            ));
        }
        Ok(placement)
    }
}

impl Placement {
    /// The identity placement: item `i` at offset `i`.
    ///
    /// With traces normalized in first-appearance order, this *is* the
    /// naive order-of-appearance placement the paper's baselines use.
    pub fn identity(n: usize) -> Self {
        Placement {
            offsets: (0..n).collect(),
            items: (0..n).collect(),
        }
    }

    /// Builds a placement from an `offsets[item] = offset` vector.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NotAPermutation`] if `offsets` is not
    /// a permutation of `0..offsets.len()`.
    pub fn from_offsets(offsets: Vec<usize>) -> Result<Self, PlacementError> {
        let n = offsets.len();
        let mut items = vec![usize::MAX; n];
        for (item, &off) in offsets.iter().enumerate() {
            if off >= n || items[off] != usize::MAX {
                return Err(PlacementError::NotAPermutation {
                    offset: off,
                    items: n,
                });
            }
            items[off] = item;
        }
        Ok(Placement { offsets, items })
    }

    /// Builds a placement from the item order along the tape:
    /// `order[k]` is the item stored at offset `k`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`;
    /// algorithms construct orders internally and rely on this check as
    /// a correctness assertion. Use [`Placement::from_offsets`] for
    /// fallible construction from external data.
    pub fn from_order<I: IntoIterator<Item = usize>>(order: I) -> Self {
        let items: Vec<usize> = order.into_iter().collect();
        let n = items.len();
        let mut offsets = vec![usize::MAX; n];
        for (off, &item) in items.iter().enumerate() {
            assert!(
                item < n && offsets[item] == usize::MAX,
                "order is not a permutation: item {item} at offset {off}"
            );
            offsets[item] = off;
        }
        Placement { offsets, items }
    }

    /// Number of items (= number of offsets).
    pub fn num_items(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Offset assigned to `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item >= num_items()`.
    pub fn offset_of(&self, item: usize) -> usize {
        self.offsets[item]
    }

    /// Offset assigned to a trace item id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn offset_of_id(&self, item: ItemId) -> usize {
        self.offsets[item.index()]
    }

    /// Item stored at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= num_items()`.
    pub fn item_at(&self, offset: usize) -> usize {
        self.items[offset]
    }

    /// The `offsets[item] = offset` view.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The `items[offset] = item` view (tape order).
    pub fn order(&self) -> &[usize] {
        &self.items
    }

    /// Swaps the offsets of two items, preserving the bijection.
    ///
    /// # Panics
    ///
    /// Panics if either item is out of range.
    pub fn swap_items(&mut self, a: usize, b: usize) {
        let (oa, ob) = (self.offsets[a], self.offsets[b]);
        self.offsets.swap(a, b);
        self.items.swap(oa, ob);
    }

    /// Reverses the tape order in place (cost-neutral for symmetric
    /// models; used by tests and canonicalization).
    pub fn mirror(&mut self) {
        self.items.reverse();
        for (off, &item) in self.items.iter().enumerate() {
            self.offsets[item] = off;
        }
    }

    /// Iterates `(item, offset)` pairs in item order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.offsets.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_items_to_themselves() {
        let p = Placement::identity(5);
        for i in 0..5 {
            assert_eq!(p.offset_of(i), i);
            assert_eq!(p.item_at(i), i);
        }
        assert_eq!(p.num_items(), 5);
        assert!(!p.is_empty());
        assert!(Placement::identity(0).is_empty());
    }

    #[test]
    fn from_offsets_validates_duplicates() {
        let err = Placement::from_offsets(vec![0, 1, 1]).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::NotAPermutation { offset: 1, .. }
        ));
    }

    #[test]
    fn from_offsets_validates_range() {
        let err = Placement::from_offsets(vec![0, 3, 1]).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::NotAPermutation { offset: 3, .. }
        ));
    }

    #[test]
    fn from_order_is_inverse_of_from_offsets() {
        let p = Placement::from_order([2, 0, 1]);
        assert_eq!(p.offsets(), &[1, 2, 0]);
        assert_eq!(p.order(), &[2, 0, 1]);
        assert_eq!(p, Placement::from_offsets(vec![1, 2, 0]).unwrap());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_order_rejects_duplicates() {
        let _ = Placement::from_order([0, 0, 1]);
    }

    #[test]
    fn swap_items_keeps_bijection() {
        let mut p = Placement::identity(4);
        p.swap_items(0, 3);
        assert_eq!(p.offset_of(0), 3);
        assert_eq!(p.offset_of(3), 0);
        assert_eq!(p.item_at(0), 3);
        assert_eq!(p.item_at(3), 0);
        // Inverse consistency for all items.
        for i in 0..4 {
            assert_eq!(p.item_at(p.offset_of(i)), i);
        }
    }

    #[test]
    fn mirror_reverses_order() {
        let mut p = Placement::from_order([2, 0, 1]);
        p.mirror();
        assert_eq!(p.order(), &[1, 0, 2]);
        for i in 0..3 {
            assert_eq!(p.item_at(p.offset_of(i)), i);
        }
    }

    #[test]
    fn json_round_trip() {
        let p = Placement::from_order([3, 1, 0, 2]);
        let json = dwm_foundation::json::to_string(&p);
        assert_eq!(json, r#"{"offsets":[2,1,3,0],"items":[3,1,0,2]}"#);
        let back: Placement = dwm_foundation::json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn json_accepts_exactly_the_offsets_from_offsets_accepts() {
        use dwm_foundation::{require, require_eq, Checker};
        // Half the cases shuffle a permutation, then maybe break one
        // entry; `items` is the true inverse or the identity.
        Checker::new("json_accepts_exactly_the_offsets_from_offsets_accepts").run(
            |rng| {
                let n = rng.gen_range(0..8usize);
                let mut offsets: Vec<usize> = (0..n).collect();
                if rng.gen_bool(0.5) {
                    rng.shuffle(&mut offsets);
                    if n > 0 && rng.gen_bool(0.5) {
                        let at = rng.gen_range(0..n);
                        offsets[at] = rng.gen_range(0..n + 2);
                    }
                } else {
                    offsets
                        .iter_mut()
                        .for_each(|o| *o = rng.gen_range(0..n + 2));
                }
                (offsets, rng.gen_bool(0.5))
            },
            |(offsets, inverse)| {
                let checked = Placement::from_offsets(offsets.clone());
                let items: Vec<usize> = match (&checked, inverse) {
                    (Ok(p), true) => p.order().to_vec(),
                    _ => (0..offsets.len()).collect(),
                };
                let json = format!(
                    r#"{{"offsets":{},"items":{}}}"#,
                    dwm_foundation::json::to_string(offsets),
                    dwm_foundation::json::to_string(&items)
                );
                let decoded = dwm_foundation::json::from_str::<Placement>(&json);
                match checked {
                    Ok(p) if p.order() == items.as_slice() => {
                        require_eq!(decoded.ok(), Some(p));
                    }
                    _ => require!(decoded.is_err(), "accepted {json}"),
                }
                Ok(())
            },
        );
    }
}
