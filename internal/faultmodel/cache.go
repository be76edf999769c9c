package faultmodel

// profileCache is a bounded LRU cache of row profiles: a map for lookup
// plus an intrusive doubly linked list in recency order, so get, put and
// evict are O(1). Like the Model that owns it, it is not safe for
// concurrent use. Eviction order decides only what is recomputed, never
// what a profile holds: profiles are pure functions of their coordinates.
type profileCache struct {
	entries map[cacheKey]*cacheEntry
	// root is the list sentinel: root.next is the most recently used
	// entry and root.prev the least.
	root cacheEntry
	cap  int
}

type cacheEntry struct {
	key        cacheKey
	prof       *RowProfile
	prev, next *cacheEntry
}

func newProfileCache(capEntries int) *profileCache {
	c := &profileCache{}
	c.setCap(capEntries)
	return c
}

// setCap empties the cache and bounds it to n entries (at least one).
func (c *profileCache) setCap(n int) {
	// No size hint: most models touch a small, region-local set of rows,
	// so preallocating cap-sized buckets wastes real memory on every
	// pooled device.
	c.entries = make(map[cacheKey]*cacheEntry)
	c.root.prev, c.root.next = &c.root, &c.root
	c.cap = max(n, 1)
}

// get returns the cached profile for key, marking it most recently used,
// or nil on a miss.
func (c *profileCache) get(key cacheKey) *RowProfile {
	e := c.entries[key]
	if e == nil {
		return nil
	}
	if c.root.next != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.prof
}

// put caches prof under key, which must be absent, evicting the least
// recently used entry (whose node is reused) when the cache is full.
func (c *profileCache) put(key cacheKey, prof *RowProfile) {
	var e *cacheEntry
	if len(c.entries) < c.cap {
		e = new(cacheEntry)
	} else {
		e = c.root.prev
		c.unlink(e)
		delete(c.entries, e.key)
	}
	e.key, e.prof = key, prof
	c.entries[key] = e
	c.pushFront(e)
}

func (c *profileCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *profileCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// len reports the number of cached entries.
func (c *profileCache) len() int { return len(c.entries) }
