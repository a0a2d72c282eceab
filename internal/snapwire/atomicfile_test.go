package snapwire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.snap")
	if err := os.WriteFile(path, []byte("old image"), 0o600); err != nil {
		t.Fatal(err)
	}
	want := []byte("new image, longer than the old one")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(want)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file holds %q, want %q", got, want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", fi.Mode().Perm())
	}
	assertOnlyFile(t, dir, "engine.snap")
}

// A writer that fails halfway must leave the previous file
// byte-identical and no temporary file behind.
func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.snap")
	old := bytes.Repeat([]byte("previous snapshot "), 64)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the new ima")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("a failed write changed the previous file")
	}
	assertOnlyFile(t, dir, "engine.snap")
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "engine.snap")
	if err := WriteFileAtomic(path, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
