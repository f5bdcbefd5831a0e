//! Generational slab arena for in-flight payloads.
//!
//! The event-loop hot path used to move whole payloads through the binary
//! heap on every sift. [`Arena`] decouples storage from ordering: payloads
//! live in stable slots and the heap orders small `Copy` keys that carry a
//! [`SlotKey`]. A slot is reused after [`remove`], but its generation is
//! bumped, so a stale key can never silently alias a newer occupant.
//!
//! [`remove`]: Arena::remove

/// A generational index into an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotKey {
    slot: u32,
    generation: u32,
}

impl SlotKey {
    /// The slot this key names, without its generation: what a holder that
    /// keeps exactly one key per live value (and so cannot hold a stale
    /// one) needs for [`Arena::remove_at`].
    pub fn index(self) -> u32 {
        self.slot
    }
}

#[derive(Debug)]
struct Entry<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab with generational slot reuse.
///
/// Freed slots go on a free list and are handed back LIFO; each reuse bumps
/// the slot's generation so keys from a previous occupancy are rejected.
///
/// # Examples
///
/// ```
/// use converge_net::arena::Arena;
///
/// let mut arena = Arena::new();
/// let key = arena.insert("payload");
/// assert_eq!(arena.get(key), Some(&"payload"));
/// assert_eq!(arena.remove(key), Some("payload"));
/// assert_eq!(arena.remove(key), None); // stale key
/// ```
#[derive(Debug)]
pub struct Arena<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
    high_water: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Creates an empty arena with room for `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Arena {
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Stores `value`, returning the key that retrieves it.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.entries[slot as usize];
            debug_assert!(entry.value.is_none());
            entry.value = Some(value);
            SlotKey {
                slot,
                generation: entry.generation,
            }
        } else {
            let slot = u32::try_from(self.entries.len()).expect("arena slot overflow");
            self.entries.push(Entry {
                generation: 0,
                value: Some(value),
            });
            SlotKey {
                slot,
                generation: 0,
            }
        }
    }

    /// Borrows the value behind `key`, if the key is still live.
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        let entry = self.entries.get(key.slot as usize)?;
        if entry.generation != key.generation {
            return None;
        }
        entry.value.as_ref()
    }

    /// Removes and returns the value behind `key`, freeing its slot.
    ///
    /// Returns `None` for a stale key (slot already freed or reused).
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let entry = self.entries.get(key.slot as usize)?;
        if entry.generation != key.generation {
            return None;
        }
        self.remove_at(key.slot)
    }

    /// Removes and returns whatever value occupies slot `index`, freeing
    /// the slot; `None` if it is empty or was never allocated. The
    /// generation still advances, so generational keys to the removed
    /// value go stale as after [`remove`](Arena::remove).
    pub fn remove_at(&mut self, index: u32) -> Option<T> {
        let entry = self.entries.get_mut(index as usize)?;
        let value = entry.value.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(index);
        self.len -= 1;
        Some(value)
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most values ever live at once over the arena's lifetime.
    ///
    /// Cheap occupancy telemetry: lets a long-running engine confirm that
    /// memory stays proportional to in-flight payloads, not to how many
    /// sessions have ever scheduled through the arena. Survives
    /// [`clear`](Arena::clear) so a reused arena reports its true peak.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Drops all values and recycles every slot.
    ///
    /// Generations advance for occupied slots so keys issued before the
    /// clear cannot resolve afterwards.
    pub fn clear(&mut self) {
        for (slot, entry) in self.entries.iter_mut().enumerate() {
            if entry.value.take().is_some() {
                entry.generation = entry.generation.wrapping_add(1);
                self.free.push(slot as u32);
            }
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = Arena::new();
        let a = arena.insert(10);
        let b = arena.insert(20);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&10));
        assert_eq!(arena.remove(b), Some(20));
        assert_eq!(arena.remove(a), Some(10));
        assert!(arena.is_empty());
    }

    #[test]
    fn stale_key_rejected_after_reuse() {
        let mut arena = Arena::new();
        let a = arena.insert("first");
        assert_eq!(arena.remove(a), Some("first"));
        let b = arena.insert("second");
        // The slot is reused but the generation moved on.
        assert_eq!(b.slot, a.slot);
        assert_ne!(b.generation, a.generation);
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.remove(a), None);
        assert_eq!(arena.get(b), Some(&"second"));
    }

    #[test]
    fn remove_at_ignores_generation_but_advances_it() {
        let mut arena = Arena::new();
        let a = arena.insert("first");
        assert_eq!(arena.remove_at(a.index()), Some("first"));
        assert_eq!(arena.remove_at(a.index()), None, "slot is empty now");
        assert_eq!(arena.remove_at(99), None, "slot was never allocated");
        let b = arena.insert("second");
        assert_eq!(b.index(), a.index());
        // The generational API still sees the first occupant as gone.
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.remove_at(b.index()), Some("second"));
        assert_eq!(arena.get(b), None);
        assert!(arena.is_empty());
    }

    #[test]
    fn free_slots_are_recycled() {
        let mut arena = Arena::new();
        let keys: Vec<_> = (0..8).map(|i| arena.insert(i)).collect();
        for key in &keys {
            arena.remove(*key);
        }
        for i in 0..8 {
            arena.insert(100 + i);
        }
        // No new slots were grown for the second wave.
        assert_eq!(arena.entries.len(), 8);
        assert_eq!(arena.len(), 8);
    }

    #[test]
    fn clear_invalidates_outstanding_keys() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        let b = arena.insert(2);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.get(b), None);
        let c = arena.insert(3);
        assert_eq!(arena.get(c), Some(&3));
    }
}
