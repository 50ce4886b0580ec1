package service

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// evictionOrder reads the recency order of the cached keys in old, least
// recent first, by putting fresh one-byte bodies until every old key is
// evicted. Membership is read from the entries map, so the probe itself
// refreshes nothing. It leaves the cache full of fresh entries.
func evictionOrder(c *resultCache, old []string) []string {
	cached := func(key string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.entries[key]
		return ok
	}
	var order []string
	left := slices.Clone(old)
	for i := 0; len(left) > 0 && i <= len(old)+c.maxEntries; i++ {
		c.put(fmt.Sprintf("fresh-%d", i), []byte{'f'})
		left = slices.DeleteFunc(left, func(k string) bool {
			if cached(k) {
				return false
			}
			order = append(order, k)
			return true
		})
	}
	return order
}

// TestResultCacheRecencyAndBounds pins the cache's LRU order after hits
// by key and by spelling and after a re-put, eviction from the
// least-recent end under the byte bound, an oversize body and a disabled
// cache left empty, and the counters /stats reports.
func TestResultCacheRecencyAndBounds(t *testing.T) {
	body := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	want := func(name string, c *resultCache, w CacheStats) {
		t.Helper()
		if got := c.counters(); got != w {
			t.Errorf("%s: counters %+v, want %+v", name, got, w)
		}
		if err := checkSpellings(c); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	wantOrder := func(name string, c *resultCache, keys, w []string) {
		t.Helper()
		if got := evictionOrder(c, keys); !slices.Equal(got, w) {
			t.Errorf("%s: eviction order %v, want %v", name, got, w)
		}
	}
	abcd := []string{"a", "b", "c", "d"}

	// Hits by key and by spelling move an entry to the front.
	c := newResultCache(4, 1<<20)
	for _, k := range abcd {
		c.put(k, body(2))
	}
	var da [32]byte
	da[0] = 'a'
	c.spell(da, "a")
	if got, key := c.getSpelled(da); !bytes.Equal(got, body(2)) || key != "a" {
		t.Fatalf("getSpelled: %q under %q, want a's body", got, key)
	}
	if got := c.get("c"); !bytes.Equal(got, body(2)) {
		t.Fatalf("get(c) = %q", got)
	}
	if got := c.get("e"); got != nil {
		t.Fatalf("get(e) = %q, want a miss", got)
	}
	if got, _ := c.getSpelled([32]byte{'e'}); got != nil {
		t.Fatalf("getSpelled of an unindexed digest = %q", got)
	}
	want("hits", c, CacheStats{Hits: 2, Misses: 1, Entries: 4, Bytes: 8, SpelledHits: 1, Spellings: 1})
	wantOrder("hits", c, abcd, []string{"b", "d", "a", "c"})
	want("hits probed", c, CacheStats{Hits: 2, Misses: 1, Evictions: 4, Entries: 4, Bytes: 4, SpelledHits: 1})

	// A re-put keeps the first body and refreshes recency; it counts
	// neither a hit nor a miss.
	c = newResultCache(4, 1<<20)
	for _, k := range abcd {
		c.put(k, body(2))
	}
	c.put("b", body(3))
	c.put("a", body(2))
	want("re-put", c, CacheStats{Entries: 4, Bytes: 8})
	wantOrder("re-put", c, abcd, []string{"c", "d", "b", "a"})

	// The byte bound evicts from the least-recent end until it holds,
	// however many entries that takes.
	c = newResultCache(100, 10)
	c.put("a", body(4))
	c.put("b", body(4))
	c.get("a")
	c.put("c", body(4)) // 12 bytes: b goes
	want("bytes", c, CacheStats{Hits: 1, Evictions: 1, Entries: 2, Bytes: 8})
	c.put("d", body(9)) // 17 bytes, then 13: a, then c, goes
	want("bytes twice", c, CacheStats{Hits: 1, Evictions: 3, Entries: 1, Bytes: 9})
	if got := c.get("d"); !bytes.Equal(got, body(9)) {
		t.Fatalf("get(d) = %q", got)
	}

	// A body above the byte bound is not cached and evicts nothing.
	c.put("e", body(11))
	if got := c.get("e"); got != nil {
		t.Fatalf("oversize body cached: %q", got)
	}
	c.spell([32]byte{'e'}, "e")
	want("oversize", c, CacheStats{Hits: 2, Misses: 1, Evictions: 3, Entries: 1, Bytes: 9})

	// CacheEntries < 0 stores nothing; every get is a miss.
	srv := NewServer(Config{CacheEntries: -1})
	defer srv.Close()
	c = srv.cache
	c.put("a", body(2))
	c.spell(da, "a")
	if got := c.get("a"); got != nil {
		t.Fatalf("disabled cache stored %q", got)
	}
	if got, _ := c.getSpelled(da); got != nil {
		t.Fatalf("disabled cache indexed %q", got)
	}
	want("disabled", c, CacheStats{Misses: 1})
}
