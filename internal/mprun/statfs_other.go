//go:build !linux

package mprun

import "errors"

// statDir: only Linux has a shared-memory directory to ask about; everywhere
// else the rule answers os.TempDir().
func statDir(string) (fsInfo, error) { return fsInfo{}, errors.ErrUnsupported }
