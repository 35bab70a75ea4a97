// Package blob is a directory of small byte blobs stored under campaign
// content addresses, written durably and verified on every read. It is the
// one on-disk format behind the service's result cache and its trace store.
//
// Each blob is one file, <key><ext>, holding a one-line header and then the
// payload:
//
//	wfblob/1 <key> <len> <sha256-hex>\n<payload>
//
// Put writes a temp file, fsyncs it, renames it over the final name and
// fsyncs the directory, so a crash leaves the old blob, the new one or none
// (plus, at worst, a temp file the next Open sweeps).
// Get returns the payload only when the header's key, length and hash all
// match the key looked up and the bytes read; a torn, empty, bit-flipped,
// transplanted (another key's file copied over) or headerless file reads as a
// miss, never as data. Callers treat a miss as "recompute", so corruption
// costs one recomputation instead of a wrong answer served forever.
package blob

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is a blob directory. A nil *Store ignores writes and misses every
// lookup, so call sites never branch on whether persistence is configured.
type Store struct {
	dir string
	ext string
	max int // 0 = unbounded
}

// Open returns the store rooted at dir (created if needed) whose blobs are
// named <key><ext>, retaining at most max of them (0 = no bound; Put prunes
// the oldest-modified beyond it), after sweeping the temp files of Puts that
// crashed. An empty dir means no persistence: Open returns a nil store.
func Open(dir, ext string, max int) (*Store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	sweepTemps(dir)
	return &Store{dir: dir, ext: ext, max: max}, nil
}

// sweepTemps removes the <key>.tmp-* files a crash between Put's CreateTemp
// and Rename leaves behind, which nothing else would ever remove. Only names
// whose part before ".tmp-" is a valid key go, so foreign files stay, and a
// failed removal is ignored. The trade-off: a second process writing into the
// same directory can lose one in-flight Put to the sweep. That Put's rename
// then fails, which costs a later miss, never wrong bytes.
func sweepTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if k, _, ok := strings.Cut(e.Name(), ".tmp-"); ok && !e.IsDir() && validKey(k) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// validKey admits exactly the campaign content-address shape: 64 lowercase
// hex digits. Keys become file names, so this is also the store's
// path-traversal gate.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// header renders the frame line for data stored under key. Put writes it and
// Get recomputes it from the bytes it read, so one comparison checks the
// format version, key, length and hash together.
func header(key string, data []byte) string {
	return fmt.Sprintf("wfblob/1 %s %d %x\n", key, len(data), sha256.Sum256(data))
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+s.ext) }

// Put durably stores data under key, replacing any previous blob, then prunes
// the oldest blobs beyond the store's bound.
func (s *Store) Put(key string, data []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("blob: invalid key %q", key)
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	_, err = tmp.WriteString(header(key, data))
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	syncDir(s.dir)
	s.prune()
	return nil
}

// syncDir makes the rename itself durable. It is best-effort: some platforms
// (Windows) cannot sync a directory handle, and a rename lost to a crash
// costs only a later miss, never wrong bytes, because Get verifies.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// prune removes the oldest-modified blobs beyond the bound. Best-effort: a
// prune failure never fails the Put that triggered it.
func (s *Store) prune() {
	if s.max <= 0 {
		return
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	blobs := make([]aged, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), s.ext) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		blobs = append(blobs, aged{name: e.Name(), mod: info.ModTime().UnixNano()})
	}
	if len(blobs) <= s.max {
		return
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].mod < blobs[j].mod })
	for _, b := range blobs[:len(blobs)-s.max] {
		os.Remove(filepath.Join(s.dir, b.name))
	}
}

// Get returns the payload stored under key. The second result is false when
// no blob exists or the file fails verification.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || !validKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	n := bytes.IndexByte(raw, '\n') + 1
	if n == 0 || string(raw[:n]) != header(key, raw[n:]) {
		return nil, false
	}
	return raw[n:], true
}
