      PROGRAM LEX
      X = 1 @ 2
      END
