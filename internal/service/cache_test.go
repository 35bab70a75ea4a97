package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	winofault "repro"
)

// hexKey returns a distinct content-address-shaped key per i: the disk tier
// refuses anything that is not 64 lowercase hex digits.
func hexKey(i int) string { return fmt.Sprintf("%064x", i) }

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	a, b, k := hexKey(1), hexKey(2), hexKey(3)
	c.Put(a, []byte("1"))
	c.Put(b, []byte("2"))
	if _, ok := c.Get(a); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put(k, []byte("3")) // evicts b
	if _, ok := c.Get(b); ok {
		t.Error("b survived eviction")
	}
	for _, key := range []string{a, k} {
		if _, ok := c.Get(key); !ok {
			t.Errorf("%s evicted unexpectedly", key)
		}
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

// TestCachePersistence: entries survive both eviction and a full cache
// rebuild when a persistence directory is configured.
func TestCachePersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := hexKey(1), hexKey(2)
	c.Put(a, []byte("payload-a"))
	c.Put(b, []byte("payload-b")) // evicts a from memory, not from disk
	if got, ok := c.Get(a); !ok || !bytes.Equal(got, []byte("payload-a")) {
		t.Fatalf("evicted entry not reloaded from disk: %q %v", got, ok)
	}

	// A fresh cache over the same dir (server restart) still serves it.
	c2, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(a); !ok || !bytes.Equal(got, []byte("payload-a")) {
		t.Fatalf("restart lost the entry: %q %v", got, ok)
	}
	if _, ok := c2.Get(hexKey(3)); ok {
		t.Error("phantom entry")
	}
}

// TestCachePutOverwrites: re-putting a key replaces its bytes everywhere.
func TestCachePutOverwrites(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	k := hexKey(1)
	c.Put(k, []byte("old"))
	c.Put(k, []byte("new"))
	if got, _ := c.Get(k); !bytes.Equal(got, []byte("new")) {
		t.Errorf("memory kept %q", got)
	}
	// A fresh cache over the same dir reads the disk tier alone.
	c2, err := NewCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(k); !ok || !bytes.Equal(got, []byte("new")) {
		t.Errorf("disk kept %q (%v)", got, ok)
	}
	if c.Len() != 1 {
		t.Errorf("overwrite duplicated the entry: len %d", c.Len())
	}
}

// TestCacheNoTempDroppings: atomic writes must not leave temp files behind.
func TestCacheNoTempDroppings(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Put(hexKey(i), []byte("x"))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 10 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("dir has %d entries, want 10: %v", len(ents), names)
	}
}

// TestCacheBytesGauge: the resident-bytes gauge tracks inserts, in-place
// overwrites and LRU evictions exactly, so /metrics reports true memory
// pressure.
func TestCacheBytesGauge(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	check := func(entries int, bytes int64) {
		t.Helper()
		if c.Len() != entries || c.Bytes() != bytes {
			t.Fatalf("cache at %d entries / %d bytes, want %d / %d", c.Len(), c.Bytes(), entries, bytes)
		}
	}
	a, b, k := hexKey(1), hexKey(2), hexKey(3)
	check(0, 0)
	c.Put(a, make([]byte, 10))
	check(1, 10)
	c.Put(b, make([]byte, 5))
	check(2, 15)
	c.Put(a, make([]byte, 3)) // overwrite shrinks
	check(2, 8)
	c.Put(k, make([]byte, 7)) // evicts LRU (b)
	check(2, 10)
	if _, ok := c.Get(b); ok {
		t.Fatal("evicted entry still present")
	}
	check(2, 10)
}

// TestCacheBytesDiskPromotion: entries promoted back from the persistence
// directory count toward the resident gauge again.
func TestCacheBytesDiskPromotion(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := hexKey(1), hexKey(2)
	c.Put(a, make([]byte, 10))
	c.Put(b, make([]byte, 6)) // evicts a from memory, disk copy stays
	if c.Bytes() != 6 {
		t.Fatalf("resident %d bytes, want 6", c.Bytes())
	}
	if _, ok := c.Get(a); !ok {
		t.Fatal("persisted entry lost")
	}
	// a promoted back in, evicting b: gauge follows.
	if c.Len() != 1 || c.Bytes() != 10 {
		t.Fatalf("after promotion: %d entries / %d bytes, want 1 / 10", c.Len(), c.Bytes())
	}
}

// runOnce starts a service on cfg, submits req, waits for the result and
// shuts the service down: one process lifetime over a cache directory.
func runOnce(t *testing.T, cfg Config, req winofault.CampaignRequest) (data []byte, cached bool, key string) {
	t.Helper()
	s, err := New(quiet(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Error(err)
		}
	}()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	cached = j.Status().Cached
	if data, err = j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return data, cached, j.Key
}

// TestCorruptCacheFileRecomputed: a damaged <key>.json in the cache directory
// (a torn write, an emptied file, a flipped bit, another key's file copied
// over it, or a file written before entries were framed) is never served.
// The restarted service recomputes the campaign to the original bytes,
// rewrites the file, and the next restart hits it again.
func TestCorruptCacheFileRecomputed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Jobs: 1, QueueDepth: 4, CacheDir: dir}
	want, _, key := runOnce(t, cfg, tinyReq())
	other := tinyReq()
	other.Seed = 7
	_, _, otherKey := runOnce(t, cfg, other)
	path := filepath.Join(dir, key+".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	transplant, err := os.ReadFile(filepath.Join(dir, otherKey+".json"))
	if err != nil {
		t.Fatal(err)
	}
	// The payload is the file's tail, so these offsets land inside it.
	mid := len(good) - len(want)/2
	flipped := append([]byte(nil), good...)
	flipped[mid] ^= 0x01

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", good[:mid]},
		{"empty", nil},
		{"bit flip", flipped},
		{"transplant", transplant},
		{"unframed", want},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, cached, _ := runOnce(t, cfg, tinyReq())
			if cached {
				t.Fatal("damaged cache file served as a hit")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recomputed bytes differ from the original run:\n got %s\nwant %s", got, want)
			}
			got, cached, _ = runOnce(t, cfg, tinyReq())
			if !cached || !bytes.Equal(got, want) {
				t.Fatalf("rewritten file not served: cached=%v bytes=%s", cached, got)
			}
		})
	}
}
