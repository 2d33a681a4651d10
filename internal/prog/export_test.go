package prog

// TapeCap exposes the tape's cap to the external tape tests, which read
// streams across it.
const TapeCap = tapeCap
