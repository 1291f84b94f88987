package server

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// hashRe matches the keys ResultCache accepts: a result hash as produced
// by experiments.ConfigKey, optionally namespaced by an endpoint prefix
// ("advise/<hash>"). Restricting the alphabet keeps spill paths safe.
var hashRe = regexp.MustCompile(`^(?:[a-z]+/)?[0-9a-f]{16}$`)

// versionMarker is the spill-directory file recording which ConfigKey
// canonicalisation produced the artifacts inside. A daemon booting on a
// directory whose marker does not match its own key version purges the
// stale artifacts — the hashes would never match a fresh request anyway.
const versionMarker = "VERSION"

// ResultCache is the daemon's content-addressed result store: finished
// response bodies keyed by the canonical hash of the request
// configuration, held in an in-memory LRU bounded by a byte budget, with
// write-through spill to disk. The spill directory doubles as a
// warm-start index: on construction the cache scans it, revalidates the
// artifacts against the ConfigKey version marker, and indexes every
// surviving entry — so a restarted daemon serves yesterday's grid from
// disk instead of re-simulating it.
type ResultCache struct {
	budget   int64
	spillDir string // "" disables disk spill

	mu      sync.Mutex
	bytes   int64
	order   *list.List // front = most recent
	entries map[string]*list.Element
	spilled map[string]struct{} // keys with an on-disk artifact

	hits, misses, spillHits, evictions int64
}

// CacheStats is a snapshot of the result cache: lookup and eviction
// counts since boot, and the current memory and disk inventory.
type CacheStats struct {
	Hits      int64 // Get served from memory or the spill index
	Misses    int64 // Get found nothing
	SpillHits int64 // the subset of Hits read back from disk
	Evictions int64 // LRU entries shed from memory
	Bytes     int64 // in-memory footprint
	Entries   int   // in-memory entries
	Spilled   int   // keys with an on-disk artifact
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewResultCache builds a cache with the given in-memory byte budget.
// A non-empty spillDir enables write-through disk spill; the directory
// is created if missing, and any artifacts already present from a
// previous daemon run are revalidated against version and indexed for
// warm-start serving. budget < 1 disables in-memory caching (everything
// lives on disk only, if a spillDir is set).
func NewResultCache(budget int64, spillDir, version string) (*ResultCache, error) {
	c := &ResultCache{
		budget:   budget,
		spillDir: spillDir,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		spilled:  make(map[string]struct{}),
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: result cache spill dir: %w", err)
		}
		if err := c.warmStart(version); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// warmStart rebuilds the spill index from a populated directory. A
// missing or mismatched version marker invalidates every artifact: the
// ConfigKey canonicalisation changed, so the hashes are unreachable.
// Temporaries of spills a crash cut short are deleted.
func (c *ResultCache) warmStart(version string) error {
	tmps, _ := filepath.Glob(filepath.Join(c.spillDir, "*.json.tmp"))
	for _, p := range tmps {
		_ = os.Remove(p)
	}
	marker := filepath.Join(c.spillDir, versionMarker)
	prev, err := os.ReadFile(marker)
	fresh := err != nil || strings.TrimSpace(string(prev)) != version
	names, err := filepath.Glob(filepath.Join(c.spillDir, "*.json"))
	if err != nil {
		return fmt.Errorf("server: result cache warm start: %w", err)
	}
	for _, p := range names {
		if fresh {
			_ = os.Remove(p) // stale key version; hash can never match
			continue
		}
		key, ok := keyFromSpillName(filepath.Base(p))
		if !ok {
			continue // foreign file; leave it alone, don't serve it
		}
		c.spilled[key] = struct{}{}
	}
	if fresh {
		if err := os.WriteFile(marker, []byte(version+"\n"), 0o644); err != nil {
			return fmt.Errorf("server: result cache version marker: %w", err)
		}
	}
	return nil
}

// Stats returns a snapshot of the cache's counts and inventory.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		SpillHits: c.spillHits,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		Entries:   c.order.Len(),
		Spilled:   len(c.spilled),
	}
}

// Get returns the cached body for key, consulting memory first and then
// the spill index. A disk hit is promoted back into memory. The
// returned slice must not be modified.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		return body, true
	}
	if _, onDisk := c.spilled[key]; !onDisk {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()
	body, err := os.ReadFile(c.spillPath(key))
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.misses++
		return nil, false
	}
	c.hits++
	c.spillHits++
	c.putMemLocked(key, body) // promote; the artifact is already on disk
	return body, true
}

// Put stores body under key: write-through to the spill directory, then
// into the in-memory LRU, evicting least-recently-used entries until
// the byte budget holds. Oversized bodies (> budget) live on disk only.
func (c *ResultCache) Put(key string, body []byte) {
	if !hashRe.MatchString(key) {
		return
	}
	spilled := c.spill(key, body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if spilled {
		c.spilled[key] = struct{}{}
	}
	c.putMemLocked(key, body)
}

// putMemLocked inserts into the in-memory LRU only — the Put path after
// the write-through spill, and the Get promotion path (where the
// artifact is already on disk and re-spilling it would be wasted I/O).
func (c *ResultCache) putMemLocked(key string, body []byte) {
	if int64(len(body)) > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok { // refresh
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += int64(len(body))
	}
	c.evictLocked()
}

// evictLocked drops LRU entries until the budget holds. Spill is
// write-through, so eviction only sheds memory — the artifact is
// already on disk and stays reachable through the spill index.
func (c *ResultCache) evictLocked() {
	for c.bytes > c.budget && c.order.Len() > 0 {
		el := c.order.Back()
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.body))
		c.evictions++
	}
}

// spill writes an artifact to the spill directory (atomic rename so a
// concurrent reader never sees a torn file). Reports whether the
// artifact landed on disk; always false without a spill dir. A failed
// spill removes its temporary.
func (c *ResultCache) spill(key string, body []byte) bool {
	if c.spillDir == "" {
		return false
	}
	p := c.spillPath(key)
	tmp := p + ".tmp"
	err := os.WriteFile(tmp, body, 0o644)
	if err == nil {
		err = os.Rename(tmp, p)
	}
	if err != nil {
		_ = os.Remove(tmp)
	}
	return err == nil
}

// spillPath maps a key to its on-disk artifact. Namespaced keys
// ("advise/<hash>") flatten to "advise-<hash>.json".
func (c *ResultCache) spillPath(key string) string {
	name := key
	for i := range name {
		if name[i] == '/' {
			name = name[:i] + "-" + name[i+1:]
			break
		}
	}
	return filepath.Join(c.spillDir, name+".json")
}

// keyFromSpillName inverts spillPath for the warm-start scan:
// "advise-<hash>.json" → "advise/<hash>", "<hash>.json" → "<hash>".
// Only names that round-trip to a valid cache key are accepted.
func keyFromSpillName(name string) (string, bool) {
	stem, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return "", false
	}
	key := stem
	if i := strings.IndexByte(stem, '-'); i >= 0 {
		key = stem[:i] + "/" + stem[i+1:]
	}
	if !hashRe.MatchString(key) {
		return "", false
	}
	return key, true
}
