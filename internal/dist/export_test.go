package dist

// Min returns the smallest representable value.
func (c *EmpiricalCDF) Min() float64 { return c.points[0].Value }

// Max returns the largest representable value.
func (c *EmpiricalCDF) Max() float64 { return c.points[len(c.points)-1].Value }
