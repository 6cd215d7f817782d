-- CI build-and-boot smoke script: executed by neurdb-cli against a freshly
-- booted neurdb-server over the wire protocol; stdout is diffed against
-- ci/smoke_golden.txt. Every statement runs as a server-side prepared
-- statement (Parse/Bind/Execute), so this covers DDL, prepared DML and
-- streaming SELECT end to end.
CREATE TABLE review (id INT PRIMARY KEY, brand TEXT, stars INT, score DOUBLE);
CREATE INDEX review_brand ON review (brand);
INSERT INTO review VALUES
  (1,'acme',5,4.5),
  (2,'globex',4,3.9),
  (3,'acme',3,3.1),
  (4,'initech',5,4.9),
  (5,'globex',2,2.2);
UPDATE review SET score = 4.0 WHERE brand = 'globex' AND stars >= 4;
SELECT id, brand, score FROM review WHERE score >= 3.5 ORDER BY id;
SELECT brand, COUNT(*), AVG(score) FROM review GROUP BY brand;
-- a quoted semicolon must not split the statement
SELECT id FROM review WHERE brand = 'no;such;brand';
DELETE FROM review WHERE stars <= 2;
SELECT id, brand FROM review ORDER BY score DESC LIMIT 3;
EXPLAIN SELECT id FROM review WHERE brand = 'acme';
EXPLAIN UPDATE review SET stars = 5 WHERE brand = 'acme' AND stars < 5;
EXPLAIN DELETE FROM review WHERE id = 4;
-- PREDICT's two row sources are access nodes: WITH's (train), then WHERE's (predict)
EXPLAIN PREDICT VALUE OF score FROM review WHERE id >= 4 TRAIN ON stars WITH id >= 1 AND id < 4;
-- the same write twice: the second execution runs the first one's cached plan
UPDATE review SET stars = stars + 1 WHERE id = 3;
UPDATE review SET stars = stars + 1 WHERE id = 3;
SELECT id, stars FROM review WHERE id = 3;
BEGIN;
INSERT INTO review VALUES (6,'hooli',1,1.0);
ROLLBACK;
SELECT id FROM review ORDER BY id;
-- PREDICT, executed: the first statement trains the model of churn.left_us, the
-- second fine-tunes it (reused=true) — each as one AI task. The classes are
-- cleanly separable, so the thresholded output does not depend on the platform.
CREATE TABLE churn (id INT PRIMARY KEY, plan INT, tickets INT, left_us INT);
INSERT INTO churn VALUES
  (1,0,0,0),(2,0,1,0),(3,0,0,0),(4,0,1,0),(5,1,8,1),(6,1,9,1),(7,1,8,1),(8,1,9,1),
  (9,0,0,0),(10,0,1,0),(11,1,9,1),(12,1,8,1),(13,0,1,0),(14,1,9,1),(15,0,0,0),(16,1,8,1);
ANALYZE churn;
PREDICT CLASS OF left_us FROM churn TRAIN ON plan, tickets VALUES (0, 0), (1, 9);
PREDICT CLASS OF left_us FROM churn WHERE id >= 15 TRAIN ON plan, tickets WITH id < 15;
