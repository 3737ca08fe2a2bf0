// Package store is a content-addressed on-disk store for profile-set
// wire bytes (prof.EncodeProfileSet output). It is the persistence
// layer behind scalana-serve: uploads land here once and every later
// detect/sweep/comm query reads them back, so the store's contract is
// byte fidelity — Get returns exactly the bytes Put received, verified
// against the content hash on the way out.
//
// Layout: one file per stored set,
//
//	<root>/<app>/<np>/<sha256-hex>.json
//
// keyed by (app, scale, content hash). The hash is the address: storing
// the same bytes twice is a no-op that returns the same Key, and two
// different profile sets for one (app, np) coexist under different
// hashes (the server refuses to guess between them — queries either
// name a hash or require the pair to be unambiguous).
//
// Writes are atomic: bytes go to a temporary file in the destination
// directory and are renamed into place, so a concurrent reader sees
// either nothing or the complete file, never a partial write. The store
// is safe for concurrent use by any number of goroutines (and, because
// the rename is the commit point, by cooperating processes sharing the
// directory).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sentinel errors, used by callers (the HTTP service in particular) to
// map store failures onto the right failure class instead of guessing
// from message text. Every error the store returns wraps exactly one of
// these or os.ErrNotExist / os.ErrInvalid:
//
//   - os.ErrInvalid: the caller's input was malformed (bad app name, bad
//     hash, non-positive scale) — a client error.
//   - os.ErrNotExist: the named content is not stored.
//   - ErrAmbiguous: the query matches more than one stored set and the
//     store refuses to guess.
//   - ErrCorrupt: stored state contradicts itself — bytes that no longer
//     match their content hash, or a history log naming a missing file.
var (
	ErrAmbiguous = errors.New("ambiguous")
	ErrCorrupt   = errors.New("store corrupt")
)

// Key addresses one stored profile set.
type Key struct {
	// App is the application name the set was stored under.
	App string `json:"app"`
	// NP is the job scale.
	NP int `json:"np"`
	// Hash is the lowercase hex SHA-256 of the stored bytes.
	Hash string `json:"hash"`
}

// String renders the key the way the HTTP API spells it.
func (k Key) String() string { return fmt.Sprintf("%s/%d/%s", k.App, k.NP, k.Hash) }

// Entry is one stored set in a listing.
type Entry struct {
	Key
	// Size is the stored byte count.
	Size int64 `json:"size"`
}

// Store is a content-addressed profile-set store rooted at one
// directory.
type Store struct {
	root string
	// mu serializes writes (Put and its history-log append) within this
	// process. Readers of stored sets need no lock — rename is the commit
	// point — but the upload-order log is append-only per (app, np) and
	// the append must pair atomically with the file landing.
	mu sync.Mutex
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// ValidName reports whether an application name is usable as a store
// path component: ASCII letters, digits, dot, underscore, and dash, not
// starting with a dot (so names can never traverse or collide with
// temporary files).
func ValidName(app string) bool {
	if app == "" || app[0] == '.' {
		return false
	}
	for i := 0; i < len(app); i++ {
		c := app[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// HashOf returns the store address of a byte string: lowercase hex
// SHA-256.
func HashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (s *Store) dirFor(app string, np int) string {
	return filepath.Join(s.root, app, strconv.Itoa(np))
}

func (s *Store) pathFor(k Key) string {
	return filepath.Join(s.dirFor(k.App, k.NP), k.Hash+".json")
}

// historyName is the per-(app, np) upload-order log: one content hash
// per line, appended when a Put first lands that content. The name is
// not a valid <hash>.json entry, so listings skip it automatically.
const historyName = "history.log"

func (s *Store) historyPath(app string, np int) string {
	return filepath.Join(s.dirFor(app, np), historyName)
}

// Put stores data under (app, np, HashOf(data)) and returns the key.
// Storing bytes that are already present is a no-op returning the same
// key — content addressing makes the write idempotent. The write is
// atomic (temp file + rename in the destination directory), and the
// first Put that lands a given content, or finds it stored but not yet
// logged, appends its hash to the (app, np) history log, establishing
// the upload order History reports.
func (s *Store) Put(app string, np int, data []byte) (Key, error) {
	if !ValidName(app) {
		return Key{}, fmt.Errorf("store: invalid app name %q: %w", app, os.ErrInvalid)
	}
	if np < 1 {
		return Key{}, fmt.Errorf("store: invalid scale %d: %w", np, os.ErrInvalid)
	}
	if len(data) == 0 {
		return Key{}, fmt.Errorf("store: refusing to store an empty profile set: %w", os.ErrInvalid)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := Key{App: app, NP: np, Hash: HashOf(data)}
	path := s.pathFor(k)
	if _, err := os.Stat(path); err == nil {
		// Content-addressed: same path means same bytes. A set that an
		// earlier Put renamed into place but failed to log (a crash or a
		// failed append between the two steps) is logged now, so the
		// client's retry gives it its upload position.
		logged, err := s.logged(app, np, k.Hash)
		if err != nil {
			return Key{}, err
		}
		if !logged {
			if err := s.appendHistory(app, np, k.Hash); err != nil {
				return Key{}, err
			}
		}
		return k, nil
	}
	dir := s.dirFor(app, np)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return Key{}, fmt.Errorf("store: put %s: %w", k, err)
	}
	if err := s.appendHistory(app, np, k.Hash); err != nil {
		return Key{}, err
	}
	return k, nil
}

// appendHistory records one newly landed hash in the upload-order log.
// Caller holds s.mu.
func (s *Store) appendHistory(app string, np int, hash string) error {
	f, err := os.OpenFile(s.historyPath(app, np), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: history %s/%d: %w", app, np, err)
	}
	_, werr := f.WriteString(hash + "\n")
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("store: history %s/%d: %w", app, np, werr)
	}
	if cerr != nil {
		return fmt.Errorf("store: history %s/%d: %w", app, np, cerr)
	}
	return nil
}

// logged reports whether the (app, np) history log names hash. Caller
// holds s.mu.
func (s *Store) logged(app string, np int, hash string) (bool, error) {
	raw, err := os.ReadFile(s.historyPath(app, np))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: history %s/%d: %w", app, np, err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == hash {
			return true, nil
		}
	}
	return false, nil
}

// History returns the stored entries for one (app, np) in upload order —
// the order Puts first landed their content. The position of an entry in
// the returned slice is its stable history sequence number, the fold
// order rolling baselines use.
//
// The log is reconciled against the directory on every read: duplicate
// log lines collapse to their first occurrence, a logged hash whose file
// has vanished is ErrCorrupt (history names a run that no longer
// exists), and stored sets that predate the log (or were copied in by
// hand) are appended after all logged entries in hash order, so legacy
// stores keep a deterministic — if arbitrary — ordering.
func (s *Store) History(app string, np int) ([]Entry, error) {
	if !ValidName(app) {
		return nil, fmt.Errorf("store: invalid app name %q: %w", app, os.ErrInvalid)
	}
	if np < 1 {
		return nil, fmt.Errorf("store: invalid scale %d: %w", np, os.ErrInvalid)
	}
	stored, err := s.ListScale(app, np)
	if err != nil {
		return nil, err
	}
	byHash := make(map[string]Entry, len(stored))
	for _, e := range stored {
		byHash[e.Hash] = e
	}

	s.mu.Lock()
	raw, err := os.ReadFile(s.historyPath(app, np))
	s.mu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: history %s/%d: %w", app, np, err)
	}

	var out []Entry
	seen := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		hash := strings.TrimSpace(line)
		if !validHash(hash) || seen[hash] {
			continue
		}
		seen[hash] = true
		e, ok := byHash[hash]
		if !ok {
			return nil, fmt.Errorf("store: history %s/%d names %s but no such set is stored: %w",
				app, np, hash, ErrCorrupt)
		}
		out = append(out, e)
	}
	for _, e := range stored { // ListScale is hash-ascending, so unlogged legacy sets append deterministically
		if !seen[e.Hash] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Get returns the stored bytes for a key, verified against the content
// hash — corruption on disk surfaces as an error here, never as wrong
// bytes downstream.
func (s *Store) Get(k Key) ([]byte, error) {
	if !ValidName(k.App) || !validHash(k.Hash) || k.NP < 1 {
		return nil, fmt.Errorf("store: invalid key %s: %w", k, os.ErrInvalid)
	}
	data, err := os.ReadFile(s.pathFor(k))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s: %w", k, os.ErrNotExist)
		}
		return nil, fmt.Errorf("store: get %s: %w", k, err)
	}
	if got := HashOf(data); got != k.Hash {
		return nil, fmt.Errorf("store: %s: content hash mismatch (stored bytes hash to %s): %w", k, got, ErrCorrupt)
	}
	return data, nil
}

// Has reports whether a key is present.
func (s *Store) Has(k Key) bool {
	if !ValidName(k.App) || !validHash(k.Hash) || k.NP < 1 {
		return false
	}
	_, err := os.Stat(s.pathFor(k))
	return err == nil
}

// List returns every stored entry, sorted by app name, then scale
// ascending, then hash — a deterministic order independent of insertion
// history.
func (s *Store) List() ([]Entry, error) {
	apps, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	var out []Entry
	for _, appDir := range apps {
		if !appDir.IsDir() || !ValidName(appDir.Name()) {
			continue
		}
		sub, err := s.ListApp(appDir.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// ListApp returns the stored entries for one app, sorted by scale
// ascending then hash.
func (s *Store) ListApp(app string) ([]Entry, error) {
	if !ValidName(app) {
		return nil, fmt.Errorf("store: invalid app name %q: %w", app, os.ErrInvalid)
	}
	npDirs, err := os.ReadDir(filepath.Join(s.root, app))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list %s: %w", app, err)
	}
	type npEntry struct {
		np  int
		dir string
	}
	var nps []npEntry
	for _, d := range npDirs {
		if !d.IsDir() {
			continue
		}
		np, err := strconv.Atoi(d.Name())
		if err != nil || np < 1 {
			continue
		}
		nps = append(nps, npEntry{np: np, dir: d.Name()})
	}
	sort.Slice(nps, func(i, j int) bool { return nps[i].np < nps[j].np })
	var out []Entry
	for _, ne := range nps {
		files, err := os.ReadDir(filepath.Join(s.root, app, ne.dir))
		if err != nil {
			return nil, fmt.Errorf("store: list %s/%d: %w", app, ne.np, err)
		}
		for _, f := range files { // ReadDir sorts by name, so hashes come out ordered
			name := f.Name()
			hash, ok := strings.CutSuffix(name, ".json")
			if f.IsDir() || !ok || !validHash(hash) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				return nil, fmt.Errorf("store: list %s/%d/%s: %w", app, ne.np, name, err)
			}
			out = append(out, Entry{Key: Key{App: app, NP: ne.np, Hash: hash}, Size: info.Size()})
		}
	}
	return out, nil
}

// ListScale returns the stored entries for one (app, scale), sorted by
// hash.
func (s *Store) ListScale(app string, np int) ([]Entry, error) {
	all, err := s.ListApp(app)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range all {
		if e.NP == np {
			out = append(out, e)
		}
	}
	return out, nil
}

// Resolve finds the unique stored entry for an app whose hash starts
// with prefix (a full hash is a prefix of itself). Ambiguous and
// missing prefixes are errors — the store never guesses.
func (s *Store) Resolve(app, prefix string) (Entry, error) {
	if prefix == "" || !validHashPrefix(prefix) {
		return Entry{}, fmt.Errorf("store: invalid hash prefix %q: %w", prefix, os.ErrInvalid)
	}
	all, err := s.ListApp(app)
	if err != nil {
		return Entry{}, err
	}
	var matches []Entry
	for _, e := range all {
		if strings.HasPrefix(e.Hash, prefix) {
			matches = append(matches, e)
		}
	}
	switch len(matches) {
	case 0:
		return Entry{}, fmt.Errorf("store: no stored profile set for app %s matches hash %q: %w", app, prefix, os.ErrNotExist)
	case 1:
		return matches[0], nil
	default:
		return Entry{}, fmt.Errorf("store: hash prefix %q is ambiguous for app %s (%d matches): %w", prefix, app, len(matches), ErrAmbiguous)
	}
}

// Only finds the unique stored entry for (app, np). Zero entries or
// more than one are errors: when several uploads exist for one scale, a
// query must name the hash it wants.
func (s *Store) Only(app string, np int) (Entry, error) {
	entries, err := s.ListScale(app, np)
	if err != nil {
		return Entry{}, err
	}
	switch len(entries) {
	case 0:
		return Entry{}, fmt.Errorf("store: no stored profile set for app %s at np=%d: %w", app, np, os.ErrNotExist)
	case 1:
		return entries[0], nil
	default:
		return Entry{}, fmt.Errorf("store: %d profile sets stored for app %s at np=%d; name the content hash to pick one: %w", len(entries), app, np, ErrAmbiguous)
	}
}

func validHash(h string) bool {
	if len(h) != sha256.Size*2 {
		return false
	}
	return validHashPrefix(h)
}

func validHashPrefix(h string) bool {
	if h == "" || len(h) > sha256.Size*2 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
