package sgx

// FrameIsZero reports whether t's in-TCS return frame holds nothing.
func FrameIsZero(t *TCS) bool { return t.frame == enclaveFrame{} }
