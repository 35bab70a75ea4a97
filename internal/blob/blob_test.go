package blob

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// key returns a valid 64-hex key distinct per i.
func key(i int) string { return fmt.Sprintf("%064x", i) }

func open(t *testing.T, dir string, max int) *Store {
	t.Helper()
	s, err := Open(dir, ".blob", max)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreRoundTrip: a stored payload reads back byte-identically, survives
// a reopen of the directory, and a second Put replaces it.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	payload := []byte(`{"points":[{"BER":1e-9,"Accuracy":0.75}]}`)
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := open(t, dir, 0).Get(key(1)); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened store read %q, %v; want %q", got, ok, payload)
	}
	if err := s.Put(key(1), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key(1)); !ok || string(got) != "new" {
		t.Fatalf("overwrite read %q, %v", got, ok)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("phantom blob")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != key(1)+".blob" {
		t.Fatalf("directory holds %v, want exactly %s.blob (no temp droppings)", entries, key(1))
	}
}

// TestStoreRejectsHostileKeys: keys are file names; anything that is not a
// 64-lowercase-hex content address is refused before touching the filesystem.
func TestStoreRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	for _, k := range []string{
		"", "../../etc/passwd", "abc", strings.Repeat("A", 64), strings.Repeat("g", 64),
		strings.Repeat("a", 63), strings.Repeat("a", 65), strings.Repeat("a", 62) + "/x",
		strings.Repeat("a", 63) + "\x00", "..",
	} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put accepted hostile key %q", k)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("Get resolved hostile key %q", k)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("hostile keys left droppings: %v", entries)
	}
}

// TestStorePrunes: the store holds at most max blobs, evicting the
// oldest-modified files, and never counts files with another extension.
func TestStorePrunes(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 3)
	if err := os.WriteFile(filepath.Join(dir, "other.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Put(key(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
		// Separate modtimes explicitly: filesystem timestamp granularity must
		// not make eviction order ambiguous.
		mod := time.Now().Add(time.Duration(i-6) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, key(i)+".blob"), mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	// One more Put triggers the prune over the aged set.
	if err := s.Put(key(99), []byte("x")); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, i := range []int{0, 1, 2, 3, 4, 5, 99} {
		if _, ok := s.Get(key(i)); ok {
			kept = append(kept, fmt.Sprint(i))
		}
	}
	if got := strings.Join(kept, ","); got != "4,5,99" {
		t.Fatalf("store kept blobs %s, want 4,5,99", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "other.json")); err != nil {
		t.Fatalf("prune touched a foreign file: %v", err)
	}
}

// TestStoreIgnoresCorruptFiles: every way a blob file can be damaged on disk
// reads as a miss, never as data.
func TestStoreIgnoresCorruptFiles(t *testing.T) {
	payload := []byte(`{"points":[{"BER":1e-9,"Accuracy":0.75}]}`)
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, key(1)+".blob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(2), payload); err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(filepath.Join(dir, key(2)+".blob"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x01
	for name, data := range map[string][]byte{
		"truncated":   good[:len(good)-len(payload)/2],
		"empty":       {},
		"header only": good[:len(good)-len(payload)],
		"bit flip":    flipped,
		"transplant":  other,
		"unframed":    payload,
		"extended":    append(append([]byte(nil), good...), '\n'),
		"old version": bytes.Replace(good, []byte("wfblob/1"), []byte("wfblob/0"), 1),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(filepath.Join(dir, key(1)+".blob"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key(1)); ok {
				t.Fatalf("damaged blob served: %q", got)
			}
		})
	}
}

// TestStoreNilSafe: a nil store ignores writes and misses lookups, so call
// sites never branch on whether persistence is configured; Open("") is that
// store.
func TestStoreNilSafe(t *testing.T) {
	s, err := Open("", ".blob", 0)
	if err != nil || s != nil {
		t.Fatalf("Open(\"\") = %v, %v; want a nil store", s, err)
	}
	if err := s.Put(key(1), []byte("x")); err != nil {
		t.Fatalf("nil store Put errored: %v", err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("nil store Get hit")
	}
}

// TestOpenSweepsStaleTemps: opening a store removes the <key>.tmp-* file a
// crash between CreateTemp and Rename left behind, and leaves blobs and
// foreign files alone.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	if err := open(t, dir, 0).Put(key(1), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, key(2)+".tmp-123456")
	foreign := filepath.Join(dir, "notes.tmp-1")
	for _, p := range []string{stale, foreign} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, 0)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Open: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("Open removed a foreign file: %v", err)
	}
	if got, ok := s.Get(key(1)); !ok || string(got) != "kept" {
		t.Errorf("blob after Open read %q, %v", got, ok)
	}
}

// FuzzGet: whatever bytes sit in a blob file, Get never panics and returns a
// payload only when the file is exactly header(key, payload) + payload. The
// store is opened once per fuzz process: a directory per input would make
// the target I/O-bound.
func FuzzGet(f *testing.F) {
	k := key(7)
	payload := `{"points":[{"BER":1e-9,"Accuracy":0.75}]}`
	frame := header(k, []byte(payload))
	f.Add([]byte(frame + payload))                           // valid frame
	f.Add([]byte(frame))                                     // header, no payload
	f.Add([]byte(header(key(8), []byte(payload)) + payload)) // another key's frame
	f.Add([]byte(payload))                                   // bare payload
	f.Add([]byte{})                                          // empty
	dir := f.TempDir()
	s, err := Open(dir, ".blob", 0)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, k+".blob")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		if ok && header(k, got)+string(got) != string(raw) {
			t.Fatalf("Get served %q from a file that is not its frame: %q", got, raw)
		}
	})
}
