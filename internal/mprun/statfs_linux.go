package mprun

import "syscall"

const tmpfsMagic = 0x01021994 // TMPFS_MAGIC, linux/magic.h

// statDir answers the placement rule's questions about dir; a directory this
// process cannot create files in is reported as an error.
func statDir(dir string) (fsInfo, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fsInfo{}, err
	}
	if err := syscall.Access(dir, 2|1); err != nil { // W_OK|X_OK
		return fsInfo{}, err
	}
	return fsInfo{tmpfs: int64(st.Type) == tmpfsMagic, avail: st.Bavail * uint64(st.Bsize)}, nil
}
