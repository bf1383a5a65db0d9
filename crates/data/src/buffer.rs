//! Immutable, reference-counted value buffers.
//!
//! A [`Buffer`] is a window `(offset, len)` onto an `Arc`-shared vector, and
//! a [`StrBuffer`] is a window onto one shared offsets vector plus one
//! shared UTF-8 byte string. Cloning or slicing either one bumps a
//! reference count and never copies values, so a table can be cloned,
//! split into partitions and handed to several operators while every holder
//! reads the same memory.
//!
//! The buffers are copy-on-write. Appending to a buffer that nobody else
//! holds and whose window starts at the front of its vector extends that
//! vector in place. Any other append first copies the visible window into a
//! fresh vector, so no other holder ever sees the change.

use std::fmt;
use std::ops::{Deref, Index};
use std::sync::Arc;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A shared, sliceable run of `T`, read through `Deref<Target = [T]>`.
pub struct Buffer<T> {
    data: Arc<Vec<T>>,
    offset: usize,
    len: usize,
}

impl<T> Buffer<T> {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Vec::with_capacity(cap).into()
    }

    /// The visible values.
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// Values `start..end` of this window, sharing the same vector.
    /// Panics when the range is out of bounds, like slice indexing.
    pub(crate) fn slice(&self, start: usize, end: usize) -> Self {
        assert!(start <= end && end <= self.len, "buffer slice out of range");
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// Bytes of the whole shared vector this buffer keeps alive, which is
    /// more than its own values when it is a window of a larger buffer.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// True when `other` is the window directly after this one in the
    /// same vector, so the two join without copying.
    fn adjoins(&self, other: &Buffer<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data) && self.offset + self.len == other.offset
    }
}

impl<T: Clone> Buffer<T> {
    /// The vector behind this window, made private to this buffer and cut
    /// to exactly the visible values. Copies unless the vector is unshared
    /// and the window starts at its front.
    fn make_mut(&mut self) -> &mut Vec<T> {
        if self.offset != 0 || Arc::get_mut(&mut self.data).is_none() {
            self.data = Arc::new(self.as_slice().to_vec());
            self.offset = 0;
        }
        let data = Arc::get_mut(&mut self.data).expect("unshared after copy");
        data.truncate(self.len);
        data
    }

    pub(crate) fn push(&mut self, value: T) {
        self.make_mut().push(value);
        self.len += 1;
    }

    fn extend_from_slice(&mut self, values: &[T]) {
        self.make_mut().extend_from_slice(values);
        self.len += values.len();
    }

    /// Append `other`'s values. A window that directly follows this one in
    /// the same vector joins by widening the window; anything else copies.
    pub(crate) fn append(&mut self, other: &Buffer<T>) {
        if self.adjoins(other) {
            self.len += other.len;
        } else {
            self.extend_from_slice(other);
        }
    }
}

impl<T> Deref for Buffer<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset,
            len: self.len,
        }
    }
}

impl<T> From<Vec<T>> for Buffer<T> {
    fn from(data: Vec<T>) -> Self {
        let len = data.len();
        Buffer {
            data: Arc::new(data),
            offset: 0,
            len,
        }
    }
}

impl<T> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<T>>().into()
    }
}

impl<T: PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Serializes as the JSON array of its visible values, the shape a
/// `Vec<T>` has.
impl<T: Serialize> Serialize for Buffer<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: serde::de::DeserializeOwned> Deserialize<'de> for Buffer<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(Buffer::from)
    }
}

/// Shared variable-length strings: value `i` is
/// `bytes[offsets[i]..offsets[i + 1]]`.
///
/// The offsets index the shared byte string directly, so a slice narrows
/// the offsets window and shares the bytes untouched. Every offset sits on
/// a character boundary because values are only ever appended whole.
#[derive(Clone)]
pub struct StrBuffer {
    /// `len() + 1` entries, non-decreasing.
    offsets: Buffer<usize>,
    bytes: Arc<String>,
}

impl StrBuffer {
    /// Empty, with room for `rows` offsets.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrBuffer {
            offsets: offsets.into(),
            bytes: Arc::new(String::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i`; panics when out of range, like slice indexing.
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0]..w[1]])
    }

    /// Values `start..end`, sharing the same offsets and bytes.
    pub(crate) fn slice(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.len(),
            "buffer slice out of range"
        );
        StrBuffer {
            offsets: self.offsets.slice(start, end + 1),
            bytes: Arc::clone(&self.bytes),
        }
    }

    /// Total bytes of the visible values.
    pub(crate) fn value_bytes(&self) -> usize {
        self.offsets[self.len()] - self.offsets[0]
    }

    /// Bytes of the shared offsets and byte string this buffer keeps alive.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.offsets.retained_bytes() + self.bytes.len()
    }

    /// The byte string made private to this buffer, cut to exactly the
    /// visible values, with offsets rebased to start at 0. Copies unless
    /// both are unshared and the window already starts at byte 0.
    fn make_mut(&mut self) -> &mut String {
        let (first, last) = (self.offsets[0], self.offsets[self.len()]);
        if first != 0 || Arc::get_mut(&mut self.bytes).is_none() {
            self.bytes = Arc::new(self.bytes[first..last].to_owned());
            if first != 0 {
                self.offsets = self.offsets.iter().map(|&o| o - first).collect();
            }
        }
        let bytes = Arc::get_mut(&mut self.bytes).expect("unshared after copy");
        bytes.truncate(last - first);
        bytes
    }

    pub(crate) fn push(&mut self, value: &str) {
        let bytes = self.make_mut();
        bytes.push_str(value);
        let end = bytes.len();
        self.offsets.push(end);
    }

    /// Append `other`'s values. A window that directly follows this one
    /// over the same bytes joins by widening the window; anything else
    /// copies `other`'s bytes and rebases its offsets.
    pub(crate) fn append(&mut self, other: &StrBuffer) {
        if Arc::ptr_eq(&self.bytes, &other.bytes)
            && self.offsets.offset + self.offsets.len == other.offsets.offset + 1
            && Arc::ptr_eq(&self.offsets.data, &other.offsets.data)
        {
            self.offsets.len += other.len();
            return;
        }
        let base = other.offsets[0];
        let bytes = self.make_mut();
        let start = bytes.len();
        bytes.push_str(&other.bytes[base..other.offsets[other.len()]]);
        let offsets = self.offsets.make_mut();
        offsets.extend(other.offsets[1..].iter().map(|&o| o - base + start));
        self.offsets.len = offsets.len();
    }

    /// The values at `indices`, copied into fresh buffers sized to them.
    pub(crate) fn gather(&self, indices: impl Iterator<Item = usize> + Clone) -> StrBuffer {
        let size = indices
            .clone()
            .map(|i| self.offsets[i + 1] - self.offsets[i])
            .sum();
        let mut bytes = String::with_capacity(size);
        let mut offsets = Vec::with_capacity(indices.size_hint().0 + 1);
        offsets.push(0);
        for i in indices {
            bytes.push_str(self.get(i));
            offsets.push(bytes.len());
        }
        StrBuffer {
            offsets: offsets.into(),
            bytes: Arc::new(bytes),
        }
    }
}

impl Index<usize> for StrBuffer {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrBuffer {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut bytes = String::new();
        let mut offsets = Vec::with_capacity(iter.size_hint().0 + 1);
        offsets.push(0);
        for s in iter {
            bytes.push_str(s.as_ref());
            offsets.push(bytes.len());
        }
        StrBuffer {
            offsets: offsets.into(),
            bytes: Arc::new(bytes),
        }
    }
}

impl PartialEq for StrBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for StrBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Serializes as the JSON array of its strings, the shape a `Vec<String>`
/// has.
impl Serialize for StrBuffer {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.iter().collect::<Vec<&str>>().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for StrBuffer {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Vec::<String>::deserialize(deserializer)?.iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_and_pushes_copy_on_write() {
        let a: Buffer<i64> = (0..10).collect();
        let mut b = a.slice(2, 5);
        assert_eq!(&*b, &[2, 3, 4]);
        assert_eq!(b.retained_bytes(), a.retained_bytes());
        b.push(99);
        assert_eq!(&*b, &[2, 3, 4, 99]);
        assert_eq!(&*a, &(0..10).collect::<Vec<_>>()[..]);
        assert_eq!(b.retained_bytes(), 4 * 8);
    }

    #[test]
    fn an_unshared_front_window_extends_in_place() {
        let mut a: Buffer<i64> = vec![1, 2, 3].into();
        let before = Arc::as_ptr(&a.data);
        a.push(4);
        assert_eq!(Arc::as_ptr(&a.data), before);
        // A prefix whose parent is gone truncates the tail and reuses it.
        let mut p = a.slice(0, 2);
        drop(a);
        p.push(7);
        assert_eq!(&*p, &[1, 2, 7]);
        assert_eq!(Arc::as_ptr(&p.data), before);
    }

    #[test]
    fn adjacent_windows_append_without_copying() {
        let a: Buffer<i64> = (0..8).collect();
        let mut left = a.slice(0, 3);
        left.append(&a.slice(3, 8));
        assert!(Arc::ptr_eq(&left.data, &a.data));
        assert_eq!(&*left, &*a);
        let mut gap = a.slice(0, 2);
        gap.append(&a.slice(3, 4));
        assert_eq!(&*gap, &[0, 1, 3]);
    }

    #[test]
    fn strings_slice_push_append_and_gather() {
        let s: StrBuffer = ["ab", "", "cde", "ü"].into_iter().collect();
        assert_eq!(s.len(), 4);
        assert_eq!(&s[2], "cde");
        let mut v = s.slice(1, 3);
        assert_eq!(v.iter().collect::<Vec<_>>(), ["", "cde"]);
        assert_eq!(v.value_bytes(), 3);
        v.push("x");
        assert_eq!(v.iter().collect::<Vec<_>>(), ["", "cde", "x"]);
        assert_eq!(s.iter().collect::<Vec<_>>(), ["ab", "", "cde", "ü"]);
        let mut left = s.slice(0, 2);
        left.append(&s.slice(2, 4));
        assert!(Arc::ptr_eq(&left.bytes, &s.bytes));
        assert_eq!(left, s);
        let mut other = s.slice(3, 4);
        other.append(&s.slice(0, 1));
        assert_eq!(other.iter().collect::<Vec<_>>(), ["ü", "ab"]);
        let g = s.gather([3, 0, 0].into_iter());
        assert_eq!(g.iter().collect::<Vec<_>>(), ["ü", "ab", "ab"]);
        assert_eq!(g.retained_bytes(), 4 * 8 + 6);
    }
}
