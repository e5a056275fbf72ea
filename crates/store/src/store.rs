//! The ref-counted, content-addressed block store.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::block::Block;

/// Identifier of a resident block. Ids are slab indices and may be reused
/// after a block is evicted; a live [`crate::ChainHandle`] keeps every block
/// it references alive, so a held id never dangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(usize);

impl BlockId {
    /// Slab index (stable while the block is referenced).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Identity of a block: a hash chain over the *token ids* of the block and
/// all of its ancestors. Two 64-bit FNV-1a streams with distinct offsets make
/// accidental collisions (which would silently splice the wrong history into
/// a session) astronomically unlikely.
pub type TokenChainHash = [u64; 2];

type ChainHash = TokenChainHash;

const HASH_OFFSETS: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142];
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const MIX_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Extends the two-lane token hash chain over `tokens`, starting from
/// `parent` (`None` = the stream head). This is the store's block identity
/// function; it is exported so layers above the store (e.g. a sharding
/// router placing requests by prompt prefix) address the *same* identity
/// space the prefix index uses — two prompts with equal leading tokens hash
/// identically here iff they would converge on the same resident blocks.
pub fn token_chain_hash(parent: Option<TokenChainHash>, tokens: &[u32]) -> TokenChainHash {
    let start = parent.unwrap_or(HASH_OFFSETS);
    // Lane 0 is plain FNV-1a; lane 1 uses a multiply-rotate recurrence so the
    // two lanes are genuinely independent streams, not one hash twice.
    let mut a = start[0];
    let mut b = start[1];
    for &t in tokens {
        for byte in t.to_le_bytes() {
            a ^= byte as u64;
            a = a.wrapping_mul(FNV_PRIME);
            b = (b ^ byte as u64).wrapping_mul(MIX_PRIME).rotate_left(23);
        }
    }
    [a, b]
}

#[derive(Debug)]
struct Entry {
    block: Arc<Block>,
    /// External references: one per session (or restored chain) retaining
    /// this block. The store's own `Arc` is not counted.
    refs: usize,
    hash: ChainHash,
    /// Ticket of this entry's live position in the cached-pool LRU (0 =
    /// not cached). Reviving a block just zeroes the ticket — O(1) — and
    /// leaves a stale pair in the deque for budget enforcement to discard.
    lru_ticket: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    index: HashMap<ChainHash, usize>,
    /// `(slot, ticket)` of refcount-zero blocks retained under the byte
    /// budget, in least-recently-released order (front = next eviction
    /// victim). Pairs whose ticket no longer matches the entry are stale
    /// (the block was revived or re-released) and are skipped lazily.
    lru: VecDeque<(usize, u64)>,
    /// Monotonic ticket source; never reused, so a recycled slot can never
    /// be confused with a stale pair for its previous occupant.
    next_ticket: u64,
    /// Stale pairs currently in `lru`, triggering amortised compaction.
    stale: usize,
    /// Packed code bytes of all resident blocks (referenced and cached),
    /// maintained incrementally so budget enforcement never walks the slab.
    resident_bytes: usize,
    attach_hits: usize,
    dedup_hits: usize,
    cached_hits: usize,
    published: usize,
    evicted: usize,
    evicted_blocks: usize,
}

impl Inner {
    /// Removes a slot from the slab and the prefix index.
    fn evict_slot(&mut self, slot: usize) {
        let entry = self.entries[slot].take().expect("evict of dead slot");
        self.index.remove(&entry.hash);
        self.free.push(slot);
        self.resident_bytes -= entry.block.memory_bytes();
        self.evicted += 1;
    }

    /// Acquires one reference to a live slot, reviving it from the cached
    /// pool (in O(1): its LRU pair goes stale in place) if it sat there.
    fn acquire_slot(&mut self, slot: usize) -> &Entry {
        let entry = self.entries[slot].as_mut().expect("indexed slot is live");
        entry.refs += 1;
        if entry.lru_ticket != 0 {
            entry.lru_ticket = 0;
            self.stale += 1;
            self.cached_hits += 1;
        }
        self.entries[slot].as_ref().expect("indexed slot is live")
    }

    /// Parks a freshly zero-ref'd slot at the back of the cached pool.
    fn park(&mut self, slot: usize) {
        self.next_ticket += 1;
        let ticket = self.next_ticket;
        self.entries[slot]
            .as_mut()
            .expect("park of dead slot")
            .lru_ticket = ticket;
        self.lru.push_back((slot, ticket));
        // Amortised compaction: once stale pairs dominate, rebuild the
        // deque in one pass (paid for by the revivals that created them).
        if self.stale > 32 && self.stale * 2 > self.lru.len() {
            let entries = &self.entries;
            self.lru.retain(|&(slot, ticket)| {
                entries[slot]
                    .as_ref()
                    .is_some_and(|e| e.lru_ticket == ticket)
            });
            self.stale = 0;
        }
    }

    /// Evicts least-recently-released zero-ref blocks until resident bytes
    /// fit the budget. Referenced blocks are never touched: the budget is a
    /// bound on what the store *caches*, not on what sessions hold.
    fn enforce_budget(&mut self, budget: usize) {
        while self.resident_bytes > budget {
            let Some((slot, ticket)) = self.lru.pop_front() else {
                return;
            };
            let live = self.entries[slot]
                .as_ref()
                .is_some_and(|e| e.lru_ticket == ticket);
            if live {
                self.evict_slot(slot);
                self.evicted_blocks += 1;
            } else {
                self.stale = self.stale.saturating_sub(1);
            }
        }
    }
}

/// Aggregate accounting of a [`BlockStore`], for observability and the
/// sharing assertions of the test suite. Serializable so metrics endpoints
/// can export it without hand-formatting JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct StoreStats {
    /// Blocks currently resident.
    pub live_blocks: usize,
    /// Sum of external references across resident blocks.
    pub total_refs: usize,
    /// Packed code bytes of all resident blocks, each counted **once**
    /// regardless of how many sessions reference it.
    pub resident_bytes: usize,
    /// Resident blocks referenced by two or more sessions.
    pub shared_blocks: usize,
    /// Bytes of those shared blocks (counted once).
    pub shared_bytes: usize,
    /// Bytes sessions would hold in total if every reference were a private
    /// copy (`Σ refs × bytes`) — the unshared baseline the store is saving
    /// against.
    pub replicated_bytes: usize,
    /// Resident blocks currently holding **zero** references — released by
    /// every session but retained in the LRU pool under the byte budget,
    /// still discoverable through the prefix index.
    pub cached_blocks: usize,
    /// Bytes of those cached blocks.
    pub cached_bytes: usize,
    /// Blocks attached to sessions at admission via a prefix hit.
    pub attach_hits: usize,
    /// Publish calls that converged on an already-resident identical block.
    pub dedup_hits: usize,
    /// Reference acquisitions that revived a cached zero-ref block — prefix
    /// reuse that plain reference counting would have evicted.
    pub cached_hits: usize,
    /// Blocks physically inserted.
    pub published: usize,
    /// Blocks evicted from the slab for any reason.
    pub evicted: usize,
    /// Of `evicted`, blocks evicted from the cached pool by byte-budget
    /// pressure (always zero for an unbudgeted store, where zero-ref blocks
    /// are evicted immediately and counted only in `evicted`).
    pub evicted_blocks: usize,
}

impl StoreStats {
    /// `replicated_bytes / resident_bytes`: how many times over the resident
    /// codes would have been duplicated without the store (1.0 = no sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.resident_bytes == 0 {
            return 1.0;
        }
        self.replicated_bytes as f64 / self.resident_bytes as f64
    }
}

/// Ref-counted store of sealed PQ code blocks with a content-addressed
/// prefix index.
///
/// All methods take `&self`; a mutex guards the slab and index. The mutex is
/// touched only on session-lifecycle edges (admission, block sealing,
/// release, stats) — never by decode-time attention, which reads blocks
/// through the `Arc`s a session already holds.
#[derive(Debug)]
pub struct BlockStore {
    block_tokens: usize,
    /// `Some(bytes)`: zero-ref blocks are retained in an LRU pool until
    /// resident bytes exceed the budget. `None`: zero-ref blocks are evicted
    /// immediately (the pre-budget behaviour).
    byte_budget: Option<usize>,
    inner: Mutex<Inner>,
}

impl BlockStore {
    /// Creates an empty store sealing blocks of `block_tokens` tokens, with
    /// no retention budget: a block is evicted the moment its last reference
    /// is released.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn new(block_tokens: usize) -> Self {
        Self::with_byte_budget(block_tokens, 0)
    }

    /// Creates a store that keeps refcount-zero blocks resident — still
    /// discoverable through the prefix index, so a later admission of the
    /// same prompt re-attaches them — as long as total resident bytes stay
    /// within `byte_budget`. Under pressure the least-recently-released
    /// zero-ref blocks are evicted first; referenced blocks are never
    /// evicted, so the budget is a soft bound when live sessions alone
    /// exceed it. `byte_budget == 0` disables retention entirely.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn with_byte_budget(block_tokens: usize, byte_budget: usize) -> Self {
        assert!(block_tokens > 0, "block_tokens must be > 0");
        Self {
            block_tokens,
            byte_budget: (byte_budget > 0).then_some(byte_budget),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Tokens per sealed block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// The retention byte budget (`None` = evict at refcount zero).
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    /// The one way into the store's state. Every allocation, lookup and
    /// release runs under this single mutex, so a guard must never be held
    /// across a channel operation, file I/O or a second lock: that would be
    /// a deadlock or a tail-latency cliff for every session. Each method
    /// takes the guard, mutates `Inner` and drops it before returning; the
    /// `store_model` proptest checks the state those methods leave behind.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("block store mutex poisoned")
    }

    /// Matches the longest resident block chain covering a prefix of
    /// `tokens` (whole blocks only) and acquires one reference per matched
    /// block. The returned chain is in oldest-first order; multiply its
    /// length by [`BlockStore::block_tokens`] for the number of tokens the
    /// caller can skip re-encoding.
    pub fn attach_prefix(&self, tokens: &[u32]) -> Vec<(BlockId, Arc<Block>)> {
        let bt = self.block_tokens;
        let mut inner = self.lock();
        let mut out = Vec::new();
        let mut parent: Option<ChainHash> = None;
        for chunk in tokens.chunks_exact(bt) {
            let hash = token_chain_hash(parent, chunk);
            let Some(&slot) = inner.index.get(&hash) else {
                break;
            };
            let block = inner.acquire_slot(slot).block.clone();
            out.push((BlockId(slot), block));
            parent = Some(hash);
        }
        inner.attach_hits += out.len();
        out
    }

    fn parent_hash(inner: &Inner, parent: Option<BlockId>) -> Option<ChainHash> {
        parent.map(|id| {
            inner.entries[id.0]
                .as_ref()
                .expect("parent block must be resident")
                .hash
        })
    }

    /// Looks up the child of `parent` sealed over exactly `tokens`
    /// ([`BlockStore::block_tokens`] of them). On a hit, acquires a
    /// reference and returns the resident block — the caller should drop its
    /// own codes for the range and read through the shared block instead
    /// (publish-time copy-on-write convergence).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is not exactly one block long.
    pub fn lookup_child(
        &self,
        parent: Option<BlockId>,
        tokens: &[u32],
    ) -> Option<(BlockId, Arc<Block>)> {
        assert_eq!(
            tokens.len(),
            self.block_tokens,
            "exactly one block of tokens"
        );
        let mut inner = self.lock();
        let hash = token_chain_hash(Self::parent_hash(&inner, parent), tokens);
        let slot = *inner.index.get(&hash)?;
        inner.dedup_hits += 1;
        let block = inner.acquire_slot(slot).block.clone();
        Some((BlockId(slot), block))
    }

    /// Inserts a freshly sealed block as the child of `parent`, with one
    /// reference owned by the caller. If an identical block is already
    /// resident (raced publish of the same prefix), the resident one is
    /// returned instead and `block` is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` or `block` is not exactly one block long.
    pub fn insert_child(
        &self,
        parent: Option<BlockId>,
        tokens: &[u32],
        block: Block,
    ) -> (BlockId, Arc<Block>) {
        assert_eq!(
            tokens.len(),
            self.block_tokens,
            "exactly one block of tokens"
        );
        assert_eq!(
            block.len(),
            self.block_tokens,
            "sealed block length mismatch"
        );
        let mut inner = self.lock();
        let hash = token_chain_hash(Self::parent_hash(&inner, parent), tokens);
        if let Some(&slot) = inner.index.get(&hash) {
            inner.dedup_hits += 1;
            let block = inner.acquire_slot(slot).block.clone();
            return (BlockId(slot), block);
        }
        let arc = Arc::new(block);
        inner.resident_bytes += arc.memory_bytes();
        let entry = Entry {
            block: arc.clone(),
            refs: 1,
            hash,
            lru_ticket: 0,
        };
        let slot = match inner.free.pop() {
            Some(slot) => {
                inner.entries[slot] = Some(entry);
                slot
            }
            None => {
                inner.entries.push(Some(entry));
                inner.entries.len() - 1
            }
        };
        inner.index.insert(hash, slot);
        inner.published += 1;
        // A fresh block may push resident bytes over the budget: shed cached
        // zero-ref blocks to make room (the new block itself is referenced
        // and therefore never the victim).
        if let Some(budget) = self.byte_budget {
            inner.enforce_budget(budget);
        }
        (BlockId(slot), arc)
    }

    /// Acquires one more reference to a resident block (used when a chain is
    /// duplicated, e.g. on restore into a live store).
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn acquire(&self, id: BlockId) {
        let mut inner = self.lock();
        assert!(inner.entries[id.0].is_some(), "acquire of evicted block");
        inner.acquire_slot(id.0);
    }

    /// Releases one reference. What happens at refcount zero depends on the
    /// retention budget: an unbudgeted store evicts the block immediately —
    /// removed from the slab and the prefix index, no separate
    /// garbage-collection pass — while a budgeted store parks it in the LRU
    /// cached pool (still indexed, so a later admission of the same prefix
    /// revives it) and evicts least-recently-released blocks only once
    /// resident bytes exceed the budget.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn release(&self, id: BlockId) {
        let mut inner = self.lock();
        let entry = inner.entries[id.0]
            .as_mut()
            .expect("release of evicted block");
        entry.refs -= 1;
        if entry.refs == 0 {
            match self.byte_budget {
                None => inner.evict_slot(id.0),
                Some(budget) => {
                    inner.park(id.0);
                    inner.enforce_budget(budget);
                }
            }
        }
    }

    /// External reference count of a resident block (0 for a block parked in
    /// the budgeted cached pool, or if evicted — the latter only observable
    /// through a stale id, which live chains never hold).
    pub fn ref_count(&self, id: BlockId) -> usize {
        let inner = self.lock();
        inner.entries[id.0].as_ref().map_or(0, |e| e.refs)
    }

    /// Aggregate accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let mut stats = StoreStats {
            attach_hits: inner.attach_hits,
            dedup_hits: inner.dedup_hits,
            cached_hits: inner.cached_hits,
            published: inner.published,
            evicted: inner.evicted,
            evicted_blocks: inner.evicted_blocks,
            ..StoreStats::default()
        };
        for entry in inner.entries.iter().flatten() {
            let bytes = entry.block.memory_bytes();
            stats.live_blocks += 1;
            stats.total_refs += entry.refs;
            stats.resident_bytes += bytes;
            stats.replicated_bytes += bytes * entry.refs;
            if entry.refs > 1 {
                stats.shared_blocks += 1;
                stats.shared_bytes += bytes;
            } else if entry.refs == 0 {
                stats.cached_blocks += 1;
                stats.cached_bytes += bytes;
            }
        }
        debug_assert_eq!(stats.resident_bytes, inner.resident_bytes);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_quant::pq::{PqCodes, PqConfig};

    fn test_block(tokens: &[u32]) -> Block {
        // Codes derived deterministically from the token ids, mimicking the
        // deterministic encoder.
        let config = PqConfig::new(4, 8).unwrap();
        let mk = |salt: u16| {
            let mut c = PqCodes::new(config);
            for &t in tokens {
                let row: Vec<u16> = (0..4).map(|s| ((t as u16) * 3 + s + salt) % 256).collect();
                c.push(&row);
            }
            c
        };
        let keys = (0..4u16).map(&mk).collect();
        let values = (4..8u16).map(&mk).collect();
        Block::new(2, 2, keys, values)
    }

    fn toks(seed: u32) -> Vec<u32> {
        (0..4).map(|i| seed * 100 + i).collect()
    }

    #[test]
    fn publish_dedup_attach_release_lifecycle() {
        let store = BlockStore::new(4);
        let t0 = toks(1);
        let t1 = toks(2);

        // Session A publishes two blocks.
        let (id0, _b0) = store.insert_child(None, &t0, test_block(&t0));
        let (id1, _b1) = store.insert_child(Some(id0), &t1, test_block(&t1));
        assert_eq!(store.ref_count(id0), 1);

        // Session B re-publishes the same first block: dedup, not a copy.
        let (id0b, _again) = store.insert_child(None, &t0, test_block(&t0));
        assert_eq!(id0b, id0);
        assert_eq!(store.ref_count(id0), 2);

        // Session C attaches the full two-block prefix by token content.
        let stream: Vec<u32> = t0.iter().chain(t1.iter()).copied().collect();
        let attached = store.attach_prefix(&stream);
        assert_eq!(attached.len(), 2);
        assert_eq!(attached[0].0, id0);
        assert_eq!(attached[1].0, id1);
        assert_eq!(store.ref_count(id0), 3);
        assert_eq!(store.ref_count(id1), 2);

        let stats = store.stats();
        assert_eq!(stats.live_blocks, 2);
        assert_eq!(stats.shared_blocks, 2);
        assert_eq!(stats.published, 2);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.attach_hits, 2);
        assert!(stats.dedup_ratio() > 2.0);

        // Releasing every reference evicts everything.
        for _ in 0..3 {
            store.release(id0);
        }
        store.release(id1);
        store.release(id1);
        let stats = store.stats();
        assert_eq!(stats.live_blocks, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.evicted, 2);
    }

    #[test]
    fn divergent_tails_do_not_match() {
        let store = BlockStore::new(4);
        let t0 = toks(1);
        let (id0, _) = store.insert_child(None, &t0, test_block(&t0));
        // Same second-block tokens under a *different* parent: distinct block.
        let t1 = toks(2);
        let (id1a, _) = store.insert_child(Some(id0), &t1, test_block(&t1));
        let (id_other, _) = store.insert_child(None, &t1, test_block(&t1));
        assert_ne!(id1a, id_other);
        // A stream diverging inside the second block matches only block 0.
        let mut stream: Vec<u32> = t0.iter().chain(t1.iter()).copied().collect();
        stream[5] ^= 1;
        let attached = store.attach_prefix(&stream);
        assert_eq!(attached.len(), 1);
        assert_eq!(attached[0].0, id0);
        // Trailing partial blocks never match.
        assert!(store.attach_prefix(&stream[..3]).is_empty());
    }

    #[test]
    fn lookup_child_distinguishes_parents() {
        let store = BlockStore::new(4);
        let t0 = toks(7);
        let t1 = toks(8);
        let (id0, _) = store.insert_child(None, &t0, test_block(&t0));
        assert!(store.lookup_child(Some(id0), &t1).is_none());
        let (id1, _) = store.insert_child(Some(id0), &t1, test_block(&t1));
        let hit = store.lookup_child(Some(id0), &t1).expect("published child");
        assert_eq!(hit.0, id1);
        assert_eq!(store.ref_count(id1), 2);
        assert!(store.lookup_child(None, &t1).is_none());
    }

    #[test]
    fn budgeted_store_caches_zero_ref_blocks_and_revives_them() {
        let block_bytes = test_block(&toks(1)).memory_bytes();
        let store = BlockStore::with_byte_budget(4, 8 * block_bytes);
        let t0 = toks(1);
        let t1 = toks(2);
        let (id0, _) = store.insert_child(None, &t0, test_block(&t0));
        let (id1, _) = store.insert_child(Some(id0), &t1, test_block(&t1));

        // Releasing every reference parks the blocks instead of evicting.
        store.release(id1);
        store.release(id0);
        let stats = store.stats();
        assert_eq!(stats.live_blocks, 2);
        assert_eq!(stats.cached_blocks, 2);
        assert_eq!(stats.cached_bytes, 2 * block_bytes);
        assert_eq!(stats.evicted, 0);

        // A later admission of the same prefix revives the whole chain.
        let stream: Vec<u32> = t0.iter().chain(t1.iter()).copied().collect();
        let attached = store.attach_prefix(&stream);
        assert_eq!(attached.len(), 2);
        assert_eq!(attached[0].0, id0);
        assert_eq!(store.ref_count(id0), 1);
        let stats = store.stats();
        assert_eq!(stats.cached_blocks, 0);
        assert_eq!(stats.cached_hits, 2);
    }

    #[test]
    fn budget_pressure_evicts_least_recently_released_first() {
        let block_bytes = test_block(&toks(1)).memory_bytes();
        // Room for exactly two blocks.
        let store = BlockStore::with_byte_budget(4, 2 * block_bytes);
        let chains: Vec<Vec<u32>> = (1..=3).map(toks).collect();
        let ids: Vec<BlockId> = chains
            .iter()
            .map(|t| store.insert_child(None, t, test_block(t)).0)
            .collect();
        // Three blocks are resident against a two-block budget (soft while
        // referenced). Releasing 0 makes it the only eviction candidate and
        // the budget is already exceeded, so it goes immediately; releasing
        // 1 and 2 then fits the cache exactly.
        store.release(ids[0]);
        let stats = store.stats();
        assert_eq!(stats.evicted_blocks, 1, "release under pressure evicts");
        assert!(store.attach_prefix(&chains[0]).is_empty(), "0 was evicted");
        store.release(ids[1]);
        store.release(ids[2]);
        let stats = store.stats();
        assert_eq!(stats.cached_blocks, 2);
        assert_eq!(stats.evicted_blocks, 1);
        // A fresh insert overflows the budget again and displaces the least
        // recently released cached block (1), keeping 2 revivable.
        let t4 = toks(4);
        let (_id4, _) = store.insert_child(None, &t4, test_block(&t4));
        let stats = store.stats();
        assert_eq!(stats.evicted_blocks, 2);
        assert!(store.attach_prefix(&chains[1]).is_empty(), "1 was evicted");
        assert_eq!(store.attach_prefix(&chains[2]).len(), 1);
    }

    #[test]
    fn revived_then_rereleased_blocks_keep_their_lru_recency() {
        let block_bytes = test_block(&toks(1)).memory_bytes();
        let store = BlockStore::with_byte_budget(4, 2 * block_bytes);
        let ta = toks(1);
        let tb = toks(2);
        let (ida, _) = store.insert_child(None, &ta, test_block(&ta));
        let (idb, _) = store.insert_child(None, &tb, test_block(&tb));
        store.release(ida); // LRU: [a]
        store.release(idb); // LRU: [a, b]
                            // Reviving `a` leaves its old pair stale; re-releasing it moves it
                            // behind `b` in recency.
        let revived = store.attach_prefix(&ta);
        assert_eq!(revived.len(), 1);
        assert_eq!(store.stats().cached_hits, 1);
        store.release(ida); // LRU: [stale-a, b, a]
                            // A third referenced block overflows the budget: the stale pair is
                            // skipped and `b` — genuinely least recently released — is evicted,
                            // not the revived-and-re-released `a`.
        let tc = toks(3);
        let (_idc, _) = store.insert_child(None, &tc, test_block(&tc));
        let stats = store.stats();
        assert_eq!(stats.evicted_blocks, 1);
        assert!(store.attach_prefix(&tb).is_empty(), "b was the victim");
        assert_eq!(store.attach_prefix(&ta).len(), 1, "a survived");
    }

    #[test]
    fn zero_budget_store_keeps_immediate_eviction_semantics() {
        let store = BlockStore::with_byte_budget(4, 0);
        assert_eq!(store.byte_budget(), None);
        let t0 = toks(9);
        let (id0, _) = store.insert_child(None, &t0, test_block(&t0));
        store.release(id0);
        let stats = store.stats();
        assert_eq!(stats.live_blocks, 0);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.evicted_blocks, 0, "no budget pressure involved");
        assert!(store.attach_prefix(&t0).is_empty());
    }

    #[test]
    fn oversized_release_is_evicted_immediately_under_a_tiny_budget() {
        let block_bytes = test_block(&toks(1)).memory_bytes();
        let store = BlockStore::with_byte_budget(4, block_bytes / 2);
        let t0 = toks(5);
        let (id0, _) = store.insert_child(None, &t0, test_block(&t0));
        // While referenced, the block may exceed the budget (soft bound).
        assert_eq!(store.stats().live_blocks, 1);
        store.release(id0);
        let stats = store.stats();
        assert_eq!(stats.live_blocks, 0);
        assert_eq!(stats.evicted_blocks, 1);
    }

    #[test]
    fn slots_are_reused_after_eviction() {
        let store = BlockStore::new(4);
        let t0 = toks(3);
        let (id0, _) = store.insert_child(None, &t0, test_block(&t0));
        store.release(id0);
        let t1 = toks(4);
        let (id1, _) = store.insert_child(None, &t1, test_block(&t1));
        assert_eq!(id0.index(), id1.index(), "freed slot is recycled");
        // The old hash is gone from the index.
        assert!(store.attach_prefix(&t0).is_empty());
        assert_eq!(store.attach_prefix(&t1).len(), 1);
    }
}
