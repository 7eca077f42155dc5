package dist

// Min returns the smallest representable value.
func (c *EmpiricalCDF) Min() float64 { return c.points[0].Value }
