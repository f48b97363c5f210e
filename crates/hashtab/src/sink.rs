//! Growable join-output columns with vector-width slack.

/// Column-oriented join output: `(key, inner payload, outer payload)`.
///
/// Vectorized probe kernels write whole vectors with selective stores, so
/// the sink exposes *spare capacity* of at least one vector width via
/// [`JoinSink::spare`] and the kernel advances the logical length after the
/// store. The vectors are over-allocated and trimmed by [`JoinSink::finish`].
#[derive(Debug, Default)]
pub struct JoinSink {
    keys: Vec<u32>,
    inner_pays: Vec<u32>,
    outer_pays: Vec<u32>,
    len: usize,
}

impl JoinSink {
    /// Create a sink with initial capacity for `cap` results.
    pub fn with_capacity(cap: usize) -> Self {
        JoinSink {
            keys: vec![0; cap],
            inner_pays: vec![0; cap],
            outer_pays: vec![0; cap],
            len: 0,
        }
    }

    /// Number of results emitted so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no results were emitted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the three columns hold allocated.
    pub fn size_bytes(&self) -> u64 {
        let slots = self.keys.capacity() + self.inner_pays.capacity() + self.outer_pays.capacity();
        4 * slots as u64
    }

    /// Spare space (at least `slack` entries) past the current end, as
    /// `(keys, inner payloads, outer payloads)` slices.
    #[inline]
    pub fn spare(&mut self, slack: usize) -> (&mut [u32], &mut [u32], &mut [u32]) {
        if self.len + slack > self.keys.len() {
            let new_len = (self.keys.len() * 2).max(self.len + slack).max(1024);
            self.keys.resize(new_len, 0);
            self.inner_pays.resize(new_len, 0);
            self.outer_pays.resize(new_len, 0);
        }
        (
            &mut self.keys[self.len..],
            &mut self.inner_pays[self.len..],
            &mut self.outer_pays[self.len..],
        )
    }

    /// Commit `n` results written into the spare space.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        self.len += n;
        debug_assert!(self.len <= self.keys.len());
    }

    /// Forget all results but keep the allocated buffers (for reuse across
    /// benchmark repetitions).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Append one result.
    #[inline]
    pub fn push(&mut self, key: u32, inner_pay: u32, outer_pay: u32) {
        let (k, ip, op) = self.spare(1);
        k[0] = key;
        ip[0] = inner_pay;
        op[0] = outer_pay;
        self.advance(1);
    }

    /// Trim the columns to the logical length and return them as
    /// `(keys, inner payloads, outer payloads)`.
    pub fn finish(mut self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        self.keys.truncate(self.len);
        self.inner_pays.truncate(self.len);
        self.outer_pays.truncate(self.len);
        (self.keys, self.inner_pays, self.outer_pays)
    }

    /// The emitted results as slices, without consuming the sink.
    pub fn columns(&self) -> (&[u32], &[u32], &[u32]) {
        (
            &self.keys[..self.len],
            &self.inner_pays[..self.len],
            &self.outer_pays[..self.len],
        )
    }

    /// Iterate over emitted `(key, inner, outer)` rows.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.len).map(move |i| (self.keys[i], self.inner_pays[i], self.outer_pays[i]))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn push_and_finish() {
        let mut sink = JoinSink::with_capacity(1);
        sink.push(1, 2, 3);
        sink.push(4, 5, 6);
        assert_eq!(sink.len(), 2);
        let (k, i, o) = sink.finish();
        assert_eq!(k, vec![1, 4]);
        assert_eq!(i, vec![2, 5]);
        assert_eq!(o, vec![3, 6]);
    }

    #[test]
    fn spare_grows_and_advance_commits() {
        let mut sink = JoinSink::with_capacity(0);
        let (k, i, o) = sink.spare(16);
        assert!(k.len() >= 16 && i.len() >= 16 && o.len() >= 16);
        k[0] = 7;
        i[0] = 8;
        o[0] = 9;
        sink.advance(1);
        assert_eq!(sink.columns(), (&[7u32][..], &[8u32][..], &[9u32][..]));
        assert_eq!(sink.size_bytes(), 12 * 1024);
    }

    #[test]
    fn iter_yields_rows() {
        let mut sink = JoinSink::with_capacity(4);
        sink.push(1, 2, 3);
        sink.push(4, 5, 6);
        let rows: Vec<_> = sink.iter().collect();
        assert_eq!(rows, vec![(1, 2, 3), (4, 5, 6)]);
    }
}
