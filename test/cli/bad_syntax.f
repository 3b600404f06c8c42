      PROGRAM BAD
      REAL X
      X = (1.0 + 2.0
      PRINT *, X
      END
