//go:build linux || darwin

package store

import (
	"fmt"
	"os"
	"syscall"
)

// Lock implements Locker with flock(2) on f's descriptor: exclusive
// across processes, and across handles within one. A filesystem that
// refuses flock gets the in-process path lock instead.
func (osFS) Lock(name string, f File) (func(), error) {
	of, ok := f.(*os.File)
	if !ok {
		return nil, fmt.Errorf("store: cannot lock a %T", f)
	}
	fd := int(of.Fd())
	for {
		err := syscall.Flock(fd, syscall.LOCK_EX)
		if err == nil {
			break
		}
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EOPNOTSUPP, syscall.ENOLCK, syscall.ENOSYS:
			return nil, errLockUnsupported
		}
		return nil, &os.PathError{Op: "flock", Path: name, Err: err}
	}
	unlock := func() { syscall.Flock(fd, syscall.LOCK_UN) }
	held, err := of.Stat()
	if err != nil {
		unlock()
		return nil, err
	}
	if named, err := os.Stat(name); err != nil || !os.SameFile(held, named) {
		unlock()
		return nil, ErrLockMoved
	}
	return unlock, nil
}
