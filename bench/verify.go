package main

import (
	"bytes"
	"fmt"
)

// verifyParts checks one TCP load's output: the client must hold every
// object of the page's reference set with a body byte-identical to what the
// replay archive serves for that URL. Anything else is a failed load.
func verifyParts(held, ref map[string][]byte) error {
	for url, want := range ref {
		got, ok := held[url]
		if !ok {
			return fmt.Errorf("object %s not held by the client", url)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("object %s: client holds %d bytes that differ from the archive's %d", url, len(got), len(want))
		}
	}
	return nil
}
