package server

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func key(i int) string { return fmt.Sprintf("%016x", i) }

func TestResultCachePutGet(t *testing.T) {
	c, err := NewResultCache(1<<20, "", "v1")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte(`{"a":1}`))
	got, ok := c.Get(key(1))
	if !ok || !bytes.Equal(got, []byte(`{"a":1}`)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Error("phantom hit")
	}
	// Refresh replaces the body and adjusts the footprint.
	c.Put(key(1), []byte(`{"a":2,"b":3}`))
	got, _ = c.Get(key(1))
	if !bytes.Equal(got, []byte(`{"a":2,"b":3}`)) {
		t.Errorf("refreshed Get = %q", got)
	}
	if c.Stats().Bytes != int64(len(`{"a":2,"b":3}`)) {
		t.Errorf("bytes = %d after refresh", c.Stats().Bytes)
	}
}

func TestResultCacheRejectsBadKeys(t *testing.T) {
	c, err := NewResultCache(1<<20, "", "v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "nothex", "../../etc/passwd", "ADVISE/0011223344556677", "advise/short"} {
		c.Put(bad, []byte("x"))
	}
	if c.Stats().Entries != 0 {
		t.Errorf("bad keys entered the cache: len=%d", c.Stats().Entries)
	}
	c.Put("advise/0011223344556677", []byte("x"))
	if c.Stats().Entries != 1 {
		t.Error("namespaced hash key rejected")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c, err := NewResultCache(100, "", "v1")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 40)
	c.Put(key(1), body)
	c.Put(key(2), body)
	c.Get(key(1)) // touch 1 so 2 is the LRU victim
	c.Put(key(3), body)
	if _, ok := c.Get(key(2)); ok {
		t.Error("LRU victim survived")
	}
	for _, k := range []string{key(1), key(3)} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted out of order", k)
		}
	}
	if st := c.Stats(); st.Bytes != 80 || st.Entries != 2 {
		t.Errorf("footprint %d bytes / %d entries, want 80/2", st.Bytes, st.Entries)
	}
}

func TestResultCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(100, dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 60)
	c.Put(key(1), body)
	c.Put(key(2), body) // evicts 1 to disk
	if _, err := os.Stat(filepath.Join(dir, key(1)+".json")); err != nil {
		t.Fatalf("evicted entry not spilled: %v", err)
	}
	// A disk hit is served and promoted back into memory (evicting 2).
	if got, ok := c.Get(key(1)); !ok || len(got) != 60 {
		t.Fatalf("disk hit failed: %v, %d bytes", ok, len(got))
	}
	c.mu.Lock()
	_, inMem := c.entries[key(1)]
	c.mu.Unlock()
	if !inMem {
		t.Error("disk hit not promoted to memory")
	}

	// Oversized bodies bypass memory and go straight to disk.
	big := make([]byte, 500)
	c.Put(key(7), big)
	if _, ok := c.entries[key(7)]; ok {
		t.Error("oversized body entered memory")
	}
	if got, ok := c.Get(key(7)); !ok || len(got) != 500 {
		t.Errorf("oversized body not readable from spill: %v, %d", ok, len(got))
	}

	// Namespaced keys flatten to a safe filename.
	c2, err := NewResultCache(1, dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	c2.Put("advise/00112233aabbccdd", []byte("advice"))
	if _, err := os.Stat(filepath.Join(dir, "advise-00112233aabbccdd.json")); err != nil {
		t.Errorf("namespaced spill artifact missing: %v", err)
	}
}

// TestSpillLeavesNoTemporaries pins that no spill temporary outlives
// its spill: a boot deletes one a crash left behind without indexing
// it, and a spill whose rename fails removes its own.
func TestSpillLeavesNoTemporaries(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, versionMarker), []byte("v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "0123456789abcdef.json.tmp")
	if err := os.WriteFile(orphan, []byte(`{"torn":`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewResultCache(1<<20, dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("boot left the orphaned temporary: %v", err)
	}
	if n := c.Stats().Spilled; n != 0 {
		t.Errorf("boot indexed %d artifacts, want 0", n)
	}
	if _, ok := c.Get("0123456789abcdef"); ok {
		t.Error("orphaned temporary served as a hit")
	}

	// A directory squatting on the artifact's name makes the rename fail.
	if err := os.Mkdir(filepath.Join(dir, key(5)+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	c.Put(key(5), []byte("x"))
	if _, err := os.Stat(filepath.Join(dir, key(5)+".json.tmp")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed spill left its temporary: %v", err)
	}
	if n := c.Stats().Spilled; n != 0 {
		t.Errorf("failed spill indexed %d artifacts, want 0", n)
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c, err := NewResultCache(1<<12, t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := key(j % 32)
				if j%3 == 0 {
					c.Put(k, bytes.Repeat([]byte("x"), 64))
				} else {
					c.Get(k)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Stats().Bytes > 1<<12 {
		t.Errorf("budget exceeded: %d", c.Stats().Bytes)
	}
}
