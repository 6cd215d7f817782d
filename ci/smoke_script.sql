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
