package snapwire

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with the bytes write produces, so a
// crash or a failing writer never leaves a torn file behind: the bytes
// go to a temporary file in path's directory, which is fsynced and
// renamed over path, and the directory is fsynced so the rename itself
// survives a crash. On any error the temporary file is removed and the
// previous contents of path are left untouched. The new file gets mode
// 0644.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
